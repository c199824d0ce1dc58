"""Experiment OBS — unified tracing, flight recorder, SLO alerts.

The ``repro.telemetry`` observability-plane acceptance criteria as a
recorded benchmark:

* arming the full observability stack (async-plane tracer, flight
  recorder, SLO monitor) on a seeded real-pipeline run leaves every
  frontend artefact byte-identical — trace JSON, metrics snapshot,
  Prometheus exposition, wire bytes, world digest;
* the three trace representations (node ``debug_traceTransaction``,
  HEVM struct trace, live ``hevm.tx`` span counts) reconcile *exactly*
  through the unified schema, on both the path-ORAM and sharded-fleet
  backends, with identical Merkle commitments;
* an induced epoch bump seals one deterministic flight dump per stale
  ticket and fires the ``stale-ticket-rate`` burn alert; a seeded rerun
  reproduces dumps and the alert train byte-for-byte, and a zero-fault
  twin emits nothing.
"""

from __future__ import annotations

import pytest

from repro.bench.obs import ObsBenchConfig, run_obs_bench

from conftest import record_result

pytestmark = pytest.mark.observability

SEED = 1


def test_obs_gates(benchmark):
    report = benchmark.pedantic(
        lambda: run_obs_bench(ObsBenchConfig.smoke(seed=SEED)),
        iterations=1,
        rounds=1,
    )

    lines = [f"seed {SEED}, smoke-sized", ""]
    lines += report.summary_lines()
    record_result(
        "observability",
        "Observability plane: identity, reconciliation and alert gates",
        lines,
    )

    assert report.passed, report.gate_failures
    # Spelled out, so a regression names the broken criterion directly:
    assert all(report.identity.values())   # arming obs changed zero frontend bytes
    assert report.observability["async_spans"] > 0
    assert report.observability["dumps"] == 0   # clean run seals nothing
    legs = {leg["leg"]: leg for leg in report.reconciliation["legs"]}
    assert legs["sync"]["commitments"] == legs["sharded"]["commitments"]
    assert legs["async"]["spans"] > 0
    assert report.alerts["dumps"] == report.alerts["sessions"]
    assert report.alerts["deterministic"]
    assert "stale-ticket-rate" in report.alerts["alert_rules"]
    assert report.alerts["quiet_dumps"] == 0
    assert report.alerts["quiet_alerts"] == 0
