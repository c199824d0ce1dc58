"""The twin-run identity kit every bench shares.

A twin-run gate runs one seeded scenario twice — with a feature off and
on (checkpointing, receipts, observability, the reactor, one shard) —
and demands the SP-visible outputs be byte-identical.  Four hashes pin
those outputs down:

* ``trace`` — the Chrome ``trace_event`` JSON of the frontend tracer;
* ``metrics`` — the gateway metrics snapshot, canonical JSON;
* ``wire`` — every completed request's response bytes, in order;
* ``digest`` — the logical ORAM world state (key → payload).

:func:`traced_run` owns the tracer and metrics lifecycle of one run,
:class:`Artifacts` holds its hashes, and :class:`BenchReport` is the
report every gate-carrying bench returns.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator

from repro.serving.loadgen import LoadReport
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.exporters import render_chrome_trace
from repro.telemetry.tracer import (
    TraceSampler,
    Tracer,
    install_tracer,
    uninstall_tracer,
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True, kw_only=True)
class Artifacts:
    """The SP-visible hashes of one run (``prometheus`` when rendered)."""

    trace: str
    metrics: str
    prometheus: str | None = None
    wire: str
    digest: str

    def identity(self, other: "Artifacts") -> dict[str, bool]:
        """Per-hash equality, in field order, over the hashes both carry."""
        return {
            f.name: getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }


def identity_verdict(identity: dict[str, bool]) -> str:
    """``byte-identical``, or which hashes diverged."""
    if all(identity.values()):
        return "byte-identical"
    return "DIVERGED " + str(sorted(k for k, v in identity.items() if not v))


def identity_failures(
    identity: dict[str, bool], change: str, run: str
) -> list[str]:
    """One gate failure per diverged hash: ``change`` moved ``run``."""
    return [
        f"identity: {change} changed the {name} bytes of {run}"
        for name, equal in identity.items()
        if not equal
    ]


@dataclass
class TracedRun:
    """The tracer and metrics registry of one seeded run."""

    tracer: Tracer
    metrics: MetricsRegistry

    def artifacts(
        self, *, wire: str, digest: str, prometheus: str | None = None
    ) -> Artifacts:
        """Hash the run's trace and metrics next to the caller's hashes."""
        return Artifacts(
            trace=sha256_text(render_chrome_trace(self.tracer)),
            metrics=sha256_text(
                json.dumps(self.metrics.snapshot(), sort_keys=True)
            ),
            prometheus=None if prometheus is None else sha256_text(prometheus),
            wire=wire,
            digest=digest,
        )


@contextmanager
def traced_run(
    clock, seed: int | None = None, sample_rate: float = 1.0
) -> Iterator[TracedRun]:
    """Install a tracer on ``clock`` for the block, always uninstalling.

    ``seed`` seeds the :class:`TraceSampler`; ``None`` traces every
    request without drawing sampling decisions.
    """
    sampler = None if seed is None else TraceSampler(sample_rate, seed)
    tracer = install_tracer(clock, sampler)
    try:
        yield TracedRun(tracer=tracer, metrics=MetricsRegistry())
    finally:
        uninstall_tracer(clock)


def wire_hash(loads: list[LoadReport]) -> str:
    """SHA-256 over every completed request's wire bytes, in order."""
    digest = hashlib.sha256()
    for load in loads:
        for request in load.outcomes:
            if request.failure is not None or request.result is None:
                continue
            message = request.result
            if hasattr(message, "ciphertext"):
                digest.update(message.nonce)
                digest.update(message.ciphertext)
                if message.signature is not None:
                    digest.update(message.signature.to_bytes())
            else:
                digest.update(bytes(message))
    return digest.hexdigest()


def content_digest(content: dict[bytes, bytes]) -> str:
    """SHA-256 over logical ORAM content, keys in sorted order."""
    digest = hashlib.sha256()
    for key in sorted(content):
        digest.update(len(key).to_bytes(2, "big"))
        digest.update(key)
        digest.update(content[key])
    return digest.hexdigest()


def world_digest(service) -> str:
    """The service's logical world state: its shared ORAM client's
    content over the raw server (never a fault wrapper).

    Pre-execution never commits writes, so this is a pure function of
    the sync history; crashes, restarts and observers must not move it.
    """
    client = service.shared_oram_client
    if client is None:
        return content_digest({})
    return content_digest(client.logical_content(service.oram_server))


@dataclass
class BenchReport:
    """A bench's findings plus its pass/fail gates.

    Subclasses set :attr:`bench` and implement :meth:`report_lines`;
    the JSON export is ``bench``, every dataclass field,
    ``gate_failures`` and ``passed``.
    """

    bench: ClassVar[str]

    seed: int
    gate_failures: list[str] = field(default_factory=list, kw_only=True)

    @property
    def passed(self) -> bool:
        return not self.gate_failures

    def json_fields(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(
            {
                "bench": self.bench,
                **self.json_fields(),
                "gate_failures": self.gate_failures,
                "passed": self.passed,
            },
            indent=2,
            sort_keys=True,
        )

    def report_lines(self) -> list[str]:
        raise NotImplementedError

    def summary_lines(self) -> list[str]:
        lines = self.report_lines()
        if self.gate_failures:
            lines.append("gate failures:")
            lines.extend(f"  - {failure}" for failure in self.gate_failures)
        else:
            lines.append("all gates passed")
        return lines


__all__ = [
    "Artifacts",
    "BenchReport",
    "TracedRun",
    "content_digest",
    "identity_failures",
    "identity_verdict",
    "sha256_text",
    "traced_run",
    "wire_hash",
    "world_digest",
]
