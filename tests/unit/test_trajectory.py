"""The committed perf trajectory ledger is well-formed and current."""

import json
from pathlib import Path

TRAJECTORY = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "trajectory.json"
)


def test_trajectory_is_well_formed_and_current():
    trajectory = json.loads(TRAJECTORY.read_text())
    assert trajectory["entries"], "trajectory has no entries"
    for entry in trajectory["entries"]:
        assert {"pr", "bench", "headline"} <= set(entry), entry
    benches = {entry["bench"] for entry in trajectory["entries"]}
    assert "obs" in benches, "trajectory missing the obs bench entry"
    assert "crypto-backends" in benches, (
        "trajectory missing the crypto-backends bench entry"
    )
