"""End-to-end pre-execution benchmark: attest -> pre-execute -> reply.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-full --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any bundle disagrees with the node's ground truth, or when
the traced run's vacuity guard fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
PAPER_FULL_MS = 164.4          # §VI-C, HarDTAPE-full mean per-tx time
BLOCK_INTERVAL_MS = 12_000.0   # Ethereum slot time

# layer -> the workloads doing most of its work, and the phase it runs in
MOST_WORK = {
    "workloads": (("fig4-full", "raw-bundles", "serve-churn"), "setup"),
    "node": (("fig4-full", "raw-bundles", "serve-churn"), "setup"),
    "core.service": (("fig4-full", "serve-churn"), "setup"),
    "crypto.keccak": (("serve-churn",), "window"),
    "crypto.ecc": (("serve-churn",), "window"),
    "crypto.aead": (("fig4-full",), "window"),
    "oram": (("fig4-full",), "window"),
    "hardware.hevm": (("raw-bundles",), "window"),
    "evm": (("raw-bundles",), "window"),
    "hypervisor.channel": (("fig4-full",), "window"),
    "hypervisor.attestation": (("serve-churn",), "window"),
    "hypervisor.sync": (("serve-churn",), "window"),
    "trie": (("serve-churn",), "window"),
    "serving.gateway": (("serve-churn",), "window"),
}
# raw-bundles bypasses these layers entirely inside its window.
RAW_BYPASSED = ("crypto.ecc", "crypto.aead", "oram", "hypervisor.channel")


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile, interpolated between the samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(setups, window) -> dict[str, float]:
    connects = [s for setup in setups for s in setup.connect_s] + window.connect_s
    completed = [r for r in window.records if r.report is not None]
    bundle_ms = [r.host_s * 1e3 for r in completed]
    sim_ms = [r.sim_us / 1e3 for r in completed]
    return {
        "setup_s": median([s.total_s for s in setups]),
        "tx_per_s": window.completed_txs / window.host_s,
        "bundle_ms_p50": median(bundle_ms),
        "bundle_ms_p90": p90(bundle_ms),
        "connect_ms_p50": median(connects) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_latency_ms_p50": median(sim_ms),
        "sim_latency_ms_p90": p90(sim_ms),
        "sim_goodput_tps": window.completed_txs / (window.sim_busy_us / 1e6),
        "ok_ratio": (window.attempted - window.failed) / window.attempted,
    }


class _Stats:
    """Counters the program keeps itself, read around the traced window."""

    def __init__(self, service) -> None:
        from repro.crypto.keccak import keccak_memo_stats

        self._keccak = keccak_memo_stats
        device = service.devices[0]
        client = service.shared_oram_client
        self._client = client
        self._sync = device.hypervisor.synchronizer
        self.before = self._read()

    def _read(self) -> dict[str, float]:
        memo = self._keccak()
        values = {"keccak_hits": memo.hits, "keccak_lookups": memo.lookups}
        client = self._client
        if client is not None:
            values.update(
                accesses=client.stats.accesses,
                server_reads=client.server.stats.reads,
                server_writes=client.server.stats.writes,
                bytes_moved=client.server.stats.bytes_moved,
                max_stash=client.stats.max_stash_blocks,
                memo_hits=client.memo.stats.hits if client.memo else 0,
                memo_lookups=(client.memo.stats.hits + client.memo.stats.misses
                              if client.memo else 0),
            )
        if self._sync is not None:
            stats = self._sync.stats
            values.update(
                sync_blocks=stats.blocks_synced,
                accounts=stats.accounts_verified,
                slots=stats.storage_slots_verified,
                pages=stats.pages_written,
            )
        return values

    def window(self) -> dict[str, float]:
        after = self._read()
        out = {k: after[k] - self.before.get(k, 0) for k in after}
        if "max_stash" in after:
            out["max_stash"] = after["max_stash"]
        return out


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def per_layer(recorder, stats, setups_untraced, untraced,
              traced) -> dict[str, float]:
    from layers import LAYERS

    window_self = recorder.layer_self_s("window")
    setup_self = recorder.layer_self_s("setup")
    counts = {name: value for (phase, name), value in recorder.counts.items()
              if phase == "window"}
    metrics = {
        "setup.evalset_s": median([s.evalset_s for s in setups_untraced]),
        "setup.bringup_s": median([s.bringup_s for s in setups_untraced]),
        "setup.connect_s": median([sum(s.connect_s) for s in setups_untraced]),
        "setup.crypto.keccak.calls": recorder.calls[("setup", "crypto.keccak")],
        "window_s": traced.host_s,
        "trace.tx_per_s": traced.completed_txs / traced.host_s,
        "trace.overhead_ratio": traced.host_s / untraced.host_s - 1.0,
        "other_s": traced.host_s - sum(window_self.values()),
    }
    for layer in ("crypto.keccak", "trie", "evm", "oram"):
        metrics[f"setup.{LAYERS[layer]}.self_s"] = setup_self.get(layer, 0.0)
    for layer, prefix in LAYERS.items():
        metrics[f"{prefix}.self_s"] = window_self.get(layer, 0.0)
        metrics[f"{prefix}.calls"] = recorder.calls[("window", layer)]
    for name in ("crypto.keccak.hashes", "crypto.ecc.sign_calls",
                 "crypto.ecc.verify_calls", "crypto.ecc.ecdh_calls",
                 "crypto.ecc.keygen_calls", "crypto.aead.ops", "crypto.aead.bytes",
                 "crypto.aead.key_setups", "hevm.bundles", "hevm.oram_queries",
                 "hevm.direct_queries", "evm.frames", "evm.gas",
                 "channel.messages", "channel.bytes"):
        metrics[name] = counts.get(name, 0)
    metrics["hevm.l1_hit_ratio"] = _ratio(counts.get("hevm.l1_hits", 0),
                                          counts.get("hevm.l1_lookups", 0))
    delta = stats.window()
    waits = traced.queue_wait_us
    metrics.update({
        "crypto.keccak.memo_hit_ratio": _ratio(delta["keccak_hits"],
                                               delta["keccak_lookups"]),
        "oram.accesses": delta.get("accesses", 0),
        "oram.server_reads": delta.get("server_reads", 0),
        "oram.server_writes": delta.get("server_writes", 0),
        "oram.bytes_moved": delta.get("bytes_moved", 0),
        "oram.max_stash_blocks": delta.get("max_stash", 0),
        "oram.memo_hit_ratio": _ratio(delta.get("memo_hits", 0),
                                      delta.get("memo_lookups", 0)),
        "sync.blocks": delta.get("sync_blocks", 0),
        "sync.accounts_verified": delta.get("accounts", 0),
        "sync.slots_verified": delta.get("slots", 0),
        "sync.pages_written": delta.get("pages", 0),
        # Block sync happens on serve-churn only; host time from the
        # untraced window, simulated time from the traced one (identical).
        "sync.ms_p50": median(untraced.sync_s) * 1e3 if untraced.sync_s else 0.0,
        "sync.sim_ms_p50": (median(traced.sync_sim_us) / 1e3
                            if traced.sync_sim_us else 0.0),
        "gateway.queue_wait_ms_p90": (p90(waits) / 1e3 if waits else 0.0),
        "gateway.queue_wait_ms_mean": (statistics.fmean(waits) / 1e3
                                       if waits else 0.0),
        "gateway.queued_ratio": (sum(w > 0 for w in waits) / len(waits)
                                 if waits else 0.0),
        "gateway.utilization": traced.utilization,
    })
    for part in ("execution", "encryption", "signature", "oram_storage",
                 "oram_code", "swap", "other"):
        metrics[f"sim.{part}_ms"] = sum(
            getattr(b, f"{part}_us") for b in traced.breakdowns) / 1e3
    # Per-bundle device time outside the per-transaction breakdowns:
    # admission, the channel's AEAD and signatures, trace sealing.
    metrics["sim.bundle_ms"] = (traced.sim_service_us - sum(
        b.total_us for b in traced.breakdowns)) / 1e3
    return metrics


def vacuity(workload, recorder, window) -> list[str]:
    """Layers that should have worked here but recorded no call, bypassed
    layers that did, and a serve-churn load under which nothing queued."""
    problems = []
    if workload == "serve-churn" and not any(window.queue_wait_us):
        problems.append("serving.gateway: no request queued on serve-churn")
    for layer, (workloads, phase) in MOST_WORK.items():
        if workload in workloads and recorder.calls[(phase, layer)] == 0:
            problems.append(f"{layer}: no {phase} call on {workload}")
    if workload == "raw-bundles":
        for layer in RAW_BYPASSED:
            if recorder.calls[("window", layer)]:
                problems.append(f"{layer}: called in the raw-bundles window")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = _spec()
    workload, seed = args.workload, args.seed

    # Set up SETUP_REPEATS times and run the window on the last set-up.
    # The traced run first times one untraced window on the set-up before
    # (for the tracing overhead), then installs the wrappers and traces
    # the last set-up and its window.
    setups, untraced, recorder = [], None, None
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        if args.trace and last:
            from layers import SpanRecorder, install

            untraced = workloads.run_window(workload, setups[-1], seed,
                                            args.seconds)
            setups[-1].release()
            gc.collect()
            recorder = SpanRecorder(workloads.HOST_CLOCK)
            install(recorder)
            recorder.phase, recorder.enabled = "setup", True
        setups.append(workloads.set_up(workload, seed, args.seconds))
        if not last and not (args.trace and repeat == SETUP_REPEATS - 2):
            setups[-1].release()   # only its timings are kept
            gc.collect()
    setup = setups[-1]

    stats = _Stats(setup.service) if recorder is not None else None
    if recorder is not None:
        recorder.phase = "window"
    window = workloads.run_window(workload, setup, seed, args.seconds, recorder)
    if recorder is not None:
        recorder.enabled = False

    check_began = time.perf_counter()
    mismatches = workloads.check(setup, window)
    check_s = time.perf_counter() - check_began
    digest = workloads.sim_digest(window)
    problems = vacuity(workload, recorder, window) if recorder is not None else []

    if recorder is None:
        metrics = end_to_end(setups, window)
        spec = e2e_spec
    else:
        metrics = per_layer(recorder, stats, setups[:-1], untraced, window)
        spec = layer_spec
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")

    names = {entry["name"] for entry in spec}
    if set(metrics) != names:
        raise SystemExit(f"perfbench: metric set drifted from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ names)}")

    completed = [r for r in window.records if r.report is not None]
    print(f"workload {workload} seed {seed} trace {args.trace}: "
          f"{window.attempted} bundles, {window.completed_txs} txs in "
          f"{window.host_s:.2f} s host")
    if workload == "fig4-full":
        mean_ms = sum(r.sim_us for r in completed) / len(completed) / 1e3
        error = (mean_ms - PAPER_FULL_MS) / PAPER_FULL_MS
        print(f"reference: simulated mean per-tx {mean_ms:.1f} ms vs paper "
              f"HarDTAPE-full {PAPER_FULL_MS} ms (relative error {error:+.1%})")
    if workload == "serve-churn" and window.sync_sim_us:
        sync_ms = median(window.sync_sim_us) / 1e3
        print(f"reference: simulated block sync p50 {sync_ms:.1f} ms vs "
              f"{BLOCK_INTERVAL_MS / 1e3:.0f} s block interval "
              f"({sync_ms / BLOCK_INTERVAL_MS:.2%} of it)")
    repeated_bundles, repeated_txs = window.repetition()
    print(f"repetition: {repeated_bundles} of {len(window.records)} bundles "
          f"repeat an earlier one; {repeated_txs} of "
          f"{sum(len(r.indices) for r in window.records)} bundle txs ran in "
          f"an earlier bundle at the same height")
    print(f"ground truth: {len(completed)} bundles re-executed on the node "
          f"in {check_s:.1f} s, {len(mismatches)} mismatches")
    print("note: the cost model is calibrated to the paper's means, "
          "not validated against hardware")
    if recorder is not None:
        print(f"spans recorded: {len(recorder.spans)}")
    for problem in problems:
        print(f"VACUITY: {problem}")
    for mismatch in mismatches:
        print(f"MISMATCH: {mismatch}")
    print(f"sim_digest: {digest}")
    units = {entry["name"]: entry["unit"] for entry in spec}
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}")

    correct = not mismatches and not problems
    result = {
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed + len(mismatches),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
