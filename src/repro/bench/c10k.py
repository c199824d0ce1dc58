"""The C10K async-serving benchmark (``c10k-bench``).

Four seeded scenarios, every gate deterministic:

1. **Identity** — the same open-loop serving run through the full real
   pipeline twice: once driven synchronously by
   :func:`~repro.serving.loadgen.run_open_loop`, once by the reactor
   tier with resumption disabled.  The tier is pure scheduling — so the
   two runs must be byte-identical: same Chrome trace JSON, same
   gateway metrics snapshot, same wire bytes, same world-state digest.
2. **C10K** — 10,000 concurrent sessions multiplexed by one tier over a
   sharded gateway fleet (model-mode executors, real sealed tickets).
   Sessions go idle between bursts, get suspended into tickets, and
   resume on the next burst.  Gates: peak live sessions ≥ the target,
   every expected resume happened via ticket (zero stale fallbacks),
   every dispatched request completed, and p99 resumed-handshake cost
   ≤ 5% of the full attestation+DHKE handshake.
3. **Determinism** — a smaller copy of the C10K scenario run twice with
   the same seed; the full metrics + outcome digests must match.
4. **Epoch bump** — the model hypervisor "restarts" mid-run; every
   outstanding ticket must be refused as a typed
   :class:`~repro.hypervisor.resumption.StaleTicketError` (which the
   fault policies must classify non-retryable) and every session must
   recover through the full-handshake fallback with no lost requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.bench.kit import (
    BenchReport,
    identity_failures,
    identity_verdict,
    sha256_text,
)
from repro.bench.scenario import ModelTier, ServingScenario, serving_run
from repro.faults.policy import RetryPolicy
from repro.hypervisor.resumption import StaleTicketError
from repro.serving.loadgen import LoadReport


@dataclass
class C10kBenchConfig(ServingScenario):
    """One c10k-bench invocation; the identity scenario is the inherited
    :class:`ServingScenario`."""

    # -- C10K scenario (model mode, sharded fleet) ---------------------
    concurrency_target: int = 10_000
    rounds: int = 2               # suspend/resume cycles per session
    shards: int = 8
    cores_per_shard: int = 64
    open_window_us: float = 2_000_000.0
    round_gap_us: float = 1_000_000.0
    suspend_after_us: float = 200_000.0
    max_resumed_cost_share: float = 0.05   # p99 resumed / p99 full
    # -- determinism + epoch scenarios (small model runs) --------------
    determinism_sessions: int = 256
    epoch_sessions: int = 64

    @classmethod
    def smoke(cls, seed: int = 1) -> "C10kBenchConfig":
        """CI-sized: the 10k concurrency gate stays (it IS the bench);
        the real-pipeline identity run and side scenarios shrink."""
        return cls(
            seed=seed,
            identity_tenants=2,
            identity_requests=6,
            rounds=2,
            determinism_sessions=128,
            epoch_sessions=32,
        )


# ----------------------------------------------------------------------
# Scenarios 2–4: model-mode tier runs
# ----------------------------------------------------------------------

@dataclass
class _ModelRunResult:
    tier_metrics: dict[str, float]
    load: LoadReport
    peak_live: int
    live_at_end: int
    stale_fallbacks: int
    digest: str


def _run_model_tier(
    config: C10kBenchConfig,
    *,
    session_count: int,
    epoch_bump_before_round: int | None = None,
    open_window_us: float | None = None,
) -> _ModelRunResult:
    """One C10K-shaped model run: open, burst, suspend, resume, repeat."""
    model = ModelTier(
        config.seed,
        sessions=session_count,
        shards=config.shards,
        cores_per_shard=config.cores_per_shard,
        suspend_after_us=config.suspend_after_us,
    )
    model.schedule(
        b"c10k-", session_count,
        open_window_us=(
            config.open_window_us if open_window_us is None else open_window_us
        ),
        rounds=config.rounds,
        round_gap_us=config.round_gap_us,
        epoch_bump_before_round=epoch_bump_before_round,
    )
    load = model.run()
    tier = model.tier
    snapshot = tier.metrics.snapshot()
    digest = sha256_text(json.dumps(
        {
            "tier": snapshot,
            "completed": load.completed,
            "failed": load.failed,
            "rejected": load.rejected,
            "duration_us": load.duration_us,
        },
        sort_keys=True,
    ))
    return _ModelRunResult(
        tier_metrics=snapshot,
        load=load,
        peak_live=tier.peak_live,
        live_at_end=sum(
            1 for s in tier.sessions.values() if s.is_live
        ),
        stale_fallbacks=sum(
            s.stale_fallbacks for s in tier.sessions.values()
        ),
        digest=digest,
    )


# ----------------------------------------------------------------------
# Report and gates
# ----------------------------------------------------------------------

@dataclass
class C10kBenchReport(BenchReport):
    bench = "c10k"

    identity: dict[str, bool]
    c10k: dict
    determinism: dict
    epoch: dict

    def report_lines(self) -> list[str]:
        ratio = self.c10k["resumed_p99_us"] / self.c10k["full_p99_us"]
        return [
            "identity (reactor, resumption off vs synchronous baseline): "
            + identity_verdict(self.identity),
            f"c10k: {self.c10k['peak_live']} concurrent sessions "
            f"(target {self.c10k['target']}), "
            f"{self.c10k['completed']} requests completed, "
            f"{self.c10k['resumed']} ticket resumes / "
            f"{self.c10k['full_handshakes']} full handshakes",
            "  handshake cost p50/p99: full "
            f"{self.c10k['full_p50_us'] / 1000:.1f}/"
            f"{self.c10k['full_p99_us'] / 1000:.1f} ms, resumed "
            f"{self.c10k['resumed_p50_us'] / 1000:.2f}/"
            f"{self.c10k['resumed_p99_us'] / 1000:.2f} ms "
            f"(p99 share {ratio:.2%})",
            "determinism: "
            + (
                "seeded rerun digest matches"
                if self.determinism["matches"]
                else "DIGEST MISMATCH"
            ),
            f"epoch bump: {self.epoch['stale_refused']} stale ticket(s) "
            f"refused typed, {self.epoch['fallback_handshakes']} "
            f"fallback handshake(s), "
            f"{self.epoch['completed']} requests completed",
        ]


def run_c10k_bench(config: C10kBenchConfig) -> C10kBenchReport:
    # 1. Identity.
    sync_run = serving_run(config, reactor=False)
    reactor_run = serving_run(config, reactor=True)
    identity = sync_run.artifacts.identity(reactor_run.artifacts)
    failures = identity_failures(
        identity, "the reactor-driven run", "a resumption-disabled seeded run"
    )

    # 2. C10K.
    c10k = _run_model_tier(config, session_count=config.concurrency_target)
    tm = c10k.tier_metrics
    expected_resumes = config.concurrency_target * config.rounds
    c10k_obj = {
        "target": config.concurrency_target,
        "peak_live": c10k.peak_live,
        "live_at_end": c10k.live_at_end,
        "shards": config.shards,
        "completed": c10k.load.completed,
        "failed": c10k.load.failed,
        "rejected": c10k.load.rejected,
        "full_handshakes": int(tm.get("tier.full_handshakes", 0)),
        "resumed": int(tm.get("tier.resumed", 0)),
        "suspended": int(tm.get("tier.suspended", 0)),
        "stale_fallbacks": c10k.stale_fallbacks,
        "full_p50_us": tm.get("tier.handshake_full_us.p50", 0.0),
        "full_p99_us": tm.get("tier.handshake_full_us.p99", 0.0),
        "resumed_p50_us": tm.get("tier.handshake_resumed_us.p50", 0.0),
        "resumed_p99_us": tm.get("tier.handshake_resumed_us.p99", 0.0),
        "digest": c10k.digest,
    }
    if c10k.peak_live < config.concurrency_target:
        failures.append(
            f"c10k: peaked at {c10k.peak_live} concurrent sessions, "
            f"target {config.concurrency_target}"
        )
    if c10k_obj["resumed"] != expected_resumes:
        failures.append(
            f"c10k: {c10k_obj['resumed']} ticket resumes, expected "
            f"{expected_resumes} (stale fallbacks: {c10k.stale_fallbacks})"
        )
    if c10k.load.failed or c10k.load.rejected:
        failures.append(
            f"c10k: {c10k.load.failed} failed / {c10k.load.rejected} "
            f"rejected requests in an under-capacity run"
        )
    if c10k_obj["full_p99_us"] <= 0:
        failures.append("c10k: no full-handshake samples recorded")
    else:
        share = c10k_obj["resumed_p99_us"] / c10k_obj["full_p99_us"]
        if share > config.max_resumed_cost_share:
            failures.append(
                f"c10k: p99 resumed handshake is {share:.1%} of the full "
                f"handshake, cap is {config.max_resumed_cost_share:.0%}"
            )

    # 3. Determinism (smaller twin, run twice).
    det_a = _run_model_tier(config, session_count=config.determinism_sessions)
    det_b = _run_model_tier(config, session_count=config.determinism_sessions)
    determinism = {
        "sessions": config.determinism_sessions,
        "digest": det_a.digest,
        "matches": det_a.digest == det_b.digest,
    }
    if not determinism["matches"]:
        failures.append("determinism: seeded rerun produced a different digest")

    # 4. Epoch bump: every ticket refused typed, every session recovers.
    # Compress the open window so every session has handshaken AND idled
    # into SUSPENDED (minting its ticket at epoch 0) before the bump fires
    # at round_gap - 1us; only then does "all tickets refused" hold exactly.
    epoch = _run_model_tier(
        config,
        session_count=config.epoch_sessions,
        epoch_bump_before_round=1,
        open_window_us=50_000.0,
    )
    em = epoch.tier_metrics
    epoch_obj = {
        "sessions": config.epoch_sessions,
        "stale_refused": int(em.get("tier.stale_tickets", 0)),
        "fallback_handshakes": epoch.stale_fallbacks,
        "resumed": int(em.get("tier.resumed", 0)),
        "completed": epoch.load.completed,
        "failed": epoch.load.failed,
        "rejected": epoch.load.rejected,
        "stale_retryable": RetryPolicy().is_recoverable(
            StaleTicketError(0, 1)
        ),
    }
    if epoch_obj["stale_refused"] < config.epoch_sessions:
        failures.append(
            f"epoch: only {epoch_obj['stale_refused']} stale refusals for "
            f"{config.epoch_sessions} outstanding tickets"
        )
    if epoch.load.failed or epoch.load.rejected:
        failures.append(
            f"epoch: {epoch.load.failed} failed / {epoch.load.rejected} "
            f"rejected requests after the epoch bump"
        )
    if epoch_obj["stale_retryable"]:
        failures.append(
            "epoch: RetryPolicy classifies StaleTicketError as retryable"
        )

    return C10kBenchReport(
        seed=config.seed,
        identity=identity,
        c10k=c10k_obj,
        determinism=determinism,
        epoch=epoch_obj,
        gate_failures=failures,
    )


__all__ = ["C10kBenchConfig", "C10kBenchReport", "run_c10k_bench"]
