"""Experiment REC — crash recovery and SP rollback detection.

The recovery plane's acceptance criteria as a recorded benchmark: kill
the Hypervisor at seeded virtual-time points mid-bundle (≥ 3 crashes),
restart from checkpoint + journal, and assert

* every crash-affected request completes after recovery or terminates
  with a typed FAILED status — closed accounting, nothing dropped;
* the converged world-state digest is byte-identical to the no-crash
  baseline run;
* a rollback attack (SP restores a pre-checkpoint ORAM tree across the
  restart) raises ``RollbackDetectedError`` on the first post-restart
  access and re-sync heals it; rolling back the durable store itself is
  refused at boot;
* zero-crash runs with checkpointing armed are byte-identical (traces,
  metrics, wire bytes, digest) to runs with it disabled.
"""

from __future__ import annotations

from repro.bench.recovery import RecoveryBenchConfig, run_recovery_bench

from conftest import record_result

SEED = 1


def test_crash_recovery_gates(benchmark):
    report = benchmark.pedantic(
        lambda: run_recovery_bench(RecoveryBenchConfig(seed=SEED)),
        iterations=1,
        rounds=1,
    )

    lines = [
        f"seed {SEED}, {report.crash['crashes_fired']} seeded crashes",
        "",
    ] + report.summary_lines()
    record_result(
        "crash_recovery",
        "Crash recovery and SP rollback detection",
        lines,
    )

    assert report.passed, report.gate_failures
    # Spelled out, so a regression names the broken criterion directly:
    assert all(report.identity.values())  # checkpointing is byte-invisible
    assert report.crash["crashes_fired"] >= 3
    assert (
        report.crash["affected_completed"]
        + report.crash["affected_failed_typed"]
        == report.crash["affected_total"]
    )
    assert report.crash["digest"] == report.baseline["digest"]
    assert report.rollback["detected_first_access"]
    assert report.rollback["healed"]
    assert report.rollback["store_rollback_refused"]
