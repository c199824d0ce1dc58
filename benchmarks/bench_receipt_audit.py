"""Experiment R2 — signed receipts: Byzantine detection and audit cost.

The trust-but-verify plane's headline numbers, straight from the
receipt bench's gates:

* every injected Byzantine lie (result tampering, receipt forgery,
  receipt omission, sync equivocation) is detected as its expected
  typed error, quarantined, and healed on an honest device to the
  exact ground-truth result and world digest;
* a zero-rate armed twin and the receipts-on identity run produce zero
  false positives and byte-identical frontend artifacts;
* verifier-side audit cost grows logarithmically in trace length
  (Merkle membership proofs), not linearly.
"""

from __future__ import annotations

import pytest

from repro.bench.receipt import ReceiptBenchConfig, run_receipt_bench

from conftest import record_result

pytestmark = pytest.mark.byzantine

SEED = 1


def test_receipt_audit_gates(benchmark):
    report = benchmark.pedantic(
        lambda: run_receipt_bench(ReceiptBenchConfig.smoke(seed=SEED)),
        iterations=1,
        rounds=1,
    )

    lines = [
        "| fault kind | injected | detected | healed exact | flight dumps |",
        "|---|---|---|---|---|",
    ]
    for case in report.byzantine:
        lines.append(
            f"| {case['kind']} | {case['fires']} | {case['detections']} "
            f"| {case['heal_results_exact']} | {case['dumps']} |"
        )
    lines += [
        "",
        "| trace length | steps opened | hash ops |",
        "|---|---|---|",
    ]
    for row in report.scaling:
        lines.append(
            f"| {row['length']} | {row['checked']} | {row['hash_ops']} |"
        )
    lines += [""] + report.summary_lines()
    record_result(
        "receipt_audit",
        "Signed receipts: Byzantine detection, quarantine, audit cost",
        lines,
    )

    assert report.passed, report.gate_failures
    # Detection is total, not probabilistic: the commitment covers
    # every step, so each fired lie maps to exactly one typed verdict.
    for case in report.byzantine:
        assert case["fires"] >= 1
        assert case["detections"] == case["fires"]
        assert case["heal_results_exact"] == case["detections"]
    # Receipts are invisible on honest runs.
    assert all(report.identity["equal"].values())
    assert report.identity["receipts_stored"] > 0
