"""perf-bench engine: byte-identity gate and report shape."""

import json

import pytest

from repro.bench.perf import PerfBenchConfig, run_perf_bench


@pytest.mark.perf
def test_perf_bench_smoke_is_identical_and_faster():
    # The CI gate proper runs ``perf-bench --smoke`` with the full 3x
    # threshold; here a conservative 1.5x keeps the unit suite robust on
    # loaded machines while still catching a de-optimized substrate.
    report = run_perf_bench(PerfBenchConfig.smoke(min_speedup=1.5))
    assert report.identical, f"outputs diverged: {report.mismatches}"
    assert report.speedup >= 1.5
    assert report.optimized.memo_hits > 0

    parsed = json.loads(report.to_json())
    assert parsed["passed"] is True
    assert parsed["identical_outputs"] is True
    assert parsed["baseline"]["digests"] == parsed["optimized"]["digests"]
    assert "encryption" in parsed["baseline"]["layer_seconds"]


@pytest.mark.perf
def test_perf_bench_summary_mentions_the_gate():
    report = run_perf_bench(PerfBenchConfig.smoke(min_speedup=1.5))
    text = "\n".join(report.summary_lines())
    assert "speedup" in text
    assert "byte-identical: yes" in text
