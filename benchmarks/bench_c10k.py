"""Experiment C10K — event-driven serving tier with ticket resumption.

The ``repro.async_serving`` acceptance criteria as a recorded benchmark:

* a seeded reactor-driven run with resumption disabled is byte-identical
  (trace, metrics, wire, world digest) to the synchronous gateway
  baseline;
* one process sustains >= 10,000 concurrent open-loop sessions through
  the sharded router, with zero failures or admission rejections;
* a resumed handshake's p99 cost is <= 5% of the full attestation+DHKE
  handshake (measured: ~0.9%);
* after an epoch bump every outstanding ticket is refused with the
  typed ``StaleTicketError`` — never absorbed as a retryable fault —
  and every session recovers via a fallback full handshake.
"""

from __future__ import annotations

import pytest

from repro.bench.c10k import C10kBenchConfig, run_c10k_bench
from repro.faults.policy import RetryPolicy
from repro.hypervisor.resumption import StaleTicketError

from conftest import record_result

pytestmark = pytest.mark.serving

SEED = 1


def test_c10k_gates(benchmark):
    report = benchmark.pedantic(
        lambda: run_c10k_bench(C10kBenchConfig.smoke(seed=SEED)),
        iterations=1,
        rounds=1,
    )

    lines = [f"seed {SEED}, smoke-sized side scenarios "
             "(the 10k concurrency gate is full-size)", ""]
    lines += report.summary_lines()
    record_result(
        "c10k_serving",
        "C10K async serving tier: concurrency, resumption and identity gates",
        lines,
    )

    assert report.passed, report.gate_failures
    # Spelled out, so a regression names the broken criterion directly:
    assert all(report.identity.values())   # reactor run == sync baseline, byte-for-byte
    assert report.c10k["peak_live"] >= 10_000
    assert report.c10k["failed"] == 0 and report.c10k["rejected"] == 0
    ratio = report.c10k["resumed_p99_us"] / report.c10k["full_p99_us"]
    assert ratio <= 0.05                   # resumed handshake ~free vs full
    assert report.determinism["matches"]   # seeded rerun digest-stable
    assert report.epoch["stale_refused"] == report.epoch["sessions"]
    assert report.epoch["failed"] == 0 and report.epoch["rejected"] == 0


def test_stale_ticket_is_not_retryable():
    # The epoch gate's other half, independent of the big run: a stale
    # ticket must surface to the caller, not vanish into a retry loop.
    assert RetryPolicy().is_recoverable(StaleTicketError(0, 1)) is False
