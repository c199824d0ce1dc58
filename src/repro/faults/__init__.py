"""The deterministic fault-injection plane (``repro.faults``).

HarDTAPE's security story is exception handling: the Hypervisor is the
component charged with surviving a malicious or merely flaky SP —
tampered DMA messages, stalled or corrupted ORAM storage, forked block
headers, dying cores.  This package exercises exactly those paths, on
purpose and reproducibly:

* :mod:`~repro.faults.plan` — *what* fails: seeded, virtual-time fault
  schedules (:class:`FaultPlan` / :class:`FaultRule`) whose every
  decision derives from ``(seed, kind, decision index)``;
* :mod:`~repro.faults.injector` — *where* it fails:
  :class:`FaultInjector` arms a plan onto the substrate seams (channel
  receive, ORAM path reads, HEVM transaction starts, attestation
  reports, sync roots);
* :mod:`~repro.faults.policy` — *how it recovers*: retry with backoff,
  per-device circuit breakers, and gateway-level failover
  (:class:`ResilientServiceExecutor`), all typed end to end.

The chaos harness that drives serving-layer load under escalating fault
rates lives in :mod:`repro.bench.chaos`.

Layering: ``faults`` sits *beside* ``serving`` above the substrates.
Substrate modules never import it — they only expose inert seams
(``.faults`` / ``.fault_hook`` attributes, ``None`` in production).
"""

from repro.faults.errors import (
    AttestationError,
    AuthenticationError,
    BundleFailedError,
    ChannelError,
    CircuitOpenError,
    DmaDropError,
    FailedOverError,
    FaultError,
    HevmCrashError,
    HypervisorCrashError,
    OramServerStall,
    OramTimeoutError,
    QuarantinedDeviceError,
    ReceiptError,
    ReceiptMismatchError,
    ReceiptMissingError,
    RollbackDetectedError,
    SyncError,
    UnknownSessionError,
)
from repro.faults.injector import FaultInjector, FaultyOramServer
from repro.faults.plan import FaultKind, FaultPlan, FaultRule, InjectionRecord
from repro.faults.policy import (
    RECOVERABLE_ERRORS,
    CircuitBreaker,
    FailoverBundle,
    QuarantinePolicy,
    RecoveryOutcome,
    ResilientServiceExecutor,
    RetryPolicy,
)

__all__ = [
    "RECOVERABLE_ERRORS",
    "AttestationError",
    "AuthenticationError",
    "BundleFailedError",
    "ChannelError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DmaDropError",
    "FailedOverError",
    "FailoverBundle",
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "FaultyOramServer",
    "HevmCrashError",
    "HypervisorCrashError",
    "InjectionRecord",
    "OramServerStall",
    "OramTimeoutError",
    "QuarantinePolicy",
    "QuarantinedDeviceError",
    "ReceiptError",
    "ReceiptMismatchError",
    "ReceiptMissingError",
    "RecoveryOutcome",
    "RollbackDetectedError",
    "ResilientServiceExecutor",
    "RetryPolicy",
    "SyncError",
    "UnknownSessionError",
]
