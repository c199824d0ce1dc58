"""Scenario builders the benches share.

* :func:`fleet_service` / :func:`evaluation_set` — the seeded
  evaluation set and the multi-device, fee-free service over it;
* :func:`tenant_sessions` — one attested session per tenant on its
  round-robin home device, each submitting single-transaction bundles
  sealed at dispatch (so channel nonces stay ordered);
* :func:`node_ground_truth` — offline node re-execution, the anchor
  every reconciliation and receipt audit checks against;
* :func:`serving_run` — the real-pipeline open-loop identity scenario,
  driven synchronously or by the reactor tier, observability off or on;
* :class:`ModelTier` — the model-mode async tier over sharded model
  gateways, with suspend/resume rounds and an optional epoch bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.async_serving.reactor import VirtualReactor
from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
    drive_open_loop,
)
from repro.bench.kit import Artifacts, traced_run, wire_hash, world_digest
from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.evm.executor import execute_transaction
from repro.evm.tracer import CountingTracer, MultiTracer, StructTracer
from repro.hardware.timing import CostModel
from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.serving.gateway import (
    FleetModelExecutor,
    Gateway,
    GatewayConfig,
    ServiceExecutor,
)
from repro.serving.loadgen import (
    LoadReport,
    LoadSession,
    run_open_loop,
    synthetic_profiles,
)
from repro.serving.router import ShardSessionRouter
from repro.state.journal import JournaledState
from repro.telemetry.exporters import render_prometheus
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.slo import SloMonitor
from repro.telemetry.unified import counts_from_span
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set


def evaluation_set(blocks: int, txs_per_block: int):
    return build_evaluation_set(
        EvaluationSetConfig(blocks=blocks, txs_per_block=txs_per_block)
    )


def fleet_service(
    node,
    features: SecurityFeatures | str,
    *,
    devices: int,
    hevms: int,
    **device_options,
) -> HarDTAPEService:
    """A fee-free ``devices``-device service; ``features`` may be a level."""
    if isinstance(features, str):
        features = SecurityFeatures.from_level(features)
    return HarDTAPEService(
        node,
        features,
        device_count=devices,
        device_config=DeviceConfig(hevm_count=hevms, **device_options),
        charge_fees=False,
    )


def tenant_sessions(
    service: HarDTAPEService, transactions, tenants: int
) -> list[LoadSession]:
    """Tenant ``t`` attests device ``t mod N`` with a seeded client and
    submits transaction ``(t + ordinal) mod len`` as a one-tx bundle."""
    sessions: list[LoadSession] = []
    for tenant in range(tenants):
        client = PreExecutionClient(
            service.manufacturer.root_public_key,
            rng_seed=bytes([tenant + 1]) * 32,
        )
        home = tenant % len(service.devices)
        session = client.connect(service, service.devices[home])

        def make_payload(ordinal: int, offset: int = tenant, session=session):
            tx = transactions[(offset + ordinal) % len(transactions)]
            encoded = encode_bundle(
                TransactionBundle(
                    transactions=(tx,), block_number=service.synced_height
                )
            )

            def seal():
                # Seal at dispatch so channel nonces stay ordered.
                if session.device.hypervisor.features.encryption:
                    return session.channel.seal(encoded)
                return encoded

            return seal

        sessions.append(
            LoadSession(
                session_id=session.session_id,
                make_payload=make_payload,
                device_index=home,
            )
        )
    return sessions


def node_ground_truth(service: HarDTAPEService, tx):
    """Re-execute ``tx`` offline on the node's synced state, fees off —
    the trust anchor every reconciliation and receipt audit checks
    against.  Returns the result, the struct logs and the event counts.
    """
    state = JournaledState(
        service.node.state_at(service.synced_height).copy()
    )
    struct = StructTracer(capture_stack=False)
    counting = CountingTracer()
    result = execute_transaction(
        state,
        service.pending_chain_context(),
        tx,
        tracer=MultiTracer(struct, counting),
        charge_fees=False,
    )
    return result, struct.logs, counting.counts


@dataclass
class ServingScenario:
    """The real-pipeline open-loop identity scenario: its fleet and load."""

    seed: int = 1
    identity_tenants: int = 3
    identity_requests: int = 9
    identity_rate_rps: float = 40.0
    device_count: int = 2
    hevms_per_device: int = 2
    security_level: str = "full"
    blocks: int = 1
    txs_per_block: int = 4
    trace_sample_rate: float = 1.0


@dataclass
class ServingRun:
    """One :func:`serving_run`: its hashes plus what the obs gates read."""

    artifacts: Artifacts
    load: LoadReport
    tx_span_counts: list[dict] = field(default_factory=list)
    async_spans: int = 0
    async_plane_lines: int = 0


def serving_run(
    config: ServingScenario, *, reactor: bool, prometheus: bool = False,
    flight: FlightRecorder | None = None, monitor: SloMonitor | None = None,
) -> ServingRun:
    """Run ``config``'s scenario once, traced and hashed.

    ``reactor`` drives the load through the async tier with resumption
    off instead of :func:`run_open_loop`.  A ``flight`` recorder and SLO
    ``monitor`` (reactor only, together) arm the observability stack:
    the gateway and tier feed the recorder, the tier gets its own
    tracer, and the monitor observes the run once at the end.
    ``prometheus`` adds the frontend Prometheus exposition to the
    hashed artifacts.
    """
    evalset = evaluation_set(config.blocks, config.txs_per_block)
    service = fleet_service(
        evalset.node, config.security_level,
        devices=config.device_count, hevms=config.hevms_per_device,
    )
    with traced_run(service.clock, config.seed, config.trace_sample_rate) as run:
        gateway = Gateway(
            ServiceExecutor(service), GatewayConfig(),
            metrics=run.metrics, tracer=run.tracer, flight=flight,
        )
        sessions = tenant_sessions(
            service, evalset.transactions, config.identity_tenants
        )
        load_shape = dict(
            rate_rps=config.identity_rate_rps,
            total_requests=config.identity_requests,
            seed=config.seed,
        )
        extras: dict = {}
        if reactor:
            load, extras = _drive_tier(
                gateway, sessions, load_shape, flight, monitor
            )
        else:
            load = run_open_loop(gateway, sessions, **load_shape)
        # The frontend exposition: rendered WITHOUT planes, exactly as
        # every pre-observability caller renders it.
        exposition = render_prometheus(run.metrics) if prometheus else None
        tx_span_counts = [
            counts_from_span(span)
            for span in run.tracer.spans
            if span.name == "hevm.tx" and "instructions" in span.attributes
        ]
    return ServingRun(
        artifacts=run.artifacts(
            wire=wire_hash([load]),
            digest=world_digest(service),
            prometheus=exposition,
        ),
        load=load,
        tx_span_counts=tx_span_counts,
        **extras,
    )


def _drive_tier(gateway, sessions, load_shape, flight, monitor):
    """Adopt every attested session into a reactor tier and drive it."""
    reactor = VirtualReactor(start_us=gateway.now_us)
    tier = AsyncServingTier(
        reactor, gateway, engine=None,
        config=AsyncServingConfig(resumption=False),
        flight=flight,
    )
    if flight is None:
        return _adopt_and_drive(tier, sessions, load_shape), {}
    # The async plane's spans go to a tracer keyed off the *reactor*: a
    # separate clock domain, so they cannot land in (or renumber) the
    # frontend trace the identity gate hashes.
    with traced_run(reactor) as tier_run:
        load = _adopt_and_drive(tier, sessions, load_shape)
        snapshot = dict(tier.metrics.snapshot())
        snapshot.update(gateway.metrics.snapshot())
        monitor.observe(snapshot, gateway.now_us)
    return load, dict(
        async_spans=len(tier_run.tracer.spans),
        async_plane_lines=render_prometheus(
            gateway.metrics, planes={"async": tier.metrics}
        ).count('plane="async"'),
    )


def _adopt_and_drive(tier, sessions, load_shape) -> LoadReport:
    for session in sessions:
        tier.adopt_session(
            session.session_id, device_index=session.device_index
        )
    return drive_open_loop(tier, sessions, **load_shape)


class ModelTier:
    """A model-mode async tier: ``shards`` model gateways behind a
    session router, real sealed resumption tickets, seeded mixed
    profiles.  :meth:`schedule` lays out the open/burst rounds;
    :meth:`run` drains the reactor."""

    def __init__(
        self, seed: int, *, sessions: int, shards: int,
        cores_per_shard: int, suspend_after_us: float, flight=None,
    ) -> None:
        cost = CostModel()
        self.engine = ModelHandshakeEngine(cost, seed=seed)
        self.router = ShardSessionRouter({
            shard: Gateway(
                FleetModelExecutor(cores_per_shard, cost),
                GatewayConfig(max_queue_depth=sessions * 2,
                              max_in_flight_per_session=4),
            )
            for shard in range(shards)
        })
        self.reactor = VirtualReactor()
        self.tier = AsyncServingTier(
            self.reactor, self.router, self.engine,
            config=AsyncServingConfig(
                max_sessions=sessions,
                suspend_after_us=suspend_after_us,
                resumption=True,
            ),
            flight=flight,
        )
        self.profiles = synthetic_profiles(cost, "mixed", count=16, seed=seed)

    def schedule(
        self, prefix: bytes, sessions: int, *, open_window_us: float,
        rounds: int, round_gap_us: float,
        epoch_bump_before_round: int | None = None,
    ) -> None:
        """Open ``sessions`` sessions evenly over the window, then burst
        each once per round; optionally bump the handshake epoch 1 µs
        before the given round's first burst."""
        tier, profiles = self.tier, self.profiles

        def open_and_submit(rid: bytes, ordinal: int) -> None:
            tier.open_session(rid)
            tier.submit(rid, profiles[ordinal % len(profiles)])

        def burst(rid: bytes, ordinal: int) -> None:
            tier.submit(rid, profiles[ordinal % len(profiles)])

        stride = open_window_us / sessions
        for index in range(sessions):
            rid = prefix + b"%08d" % index
            t_open = index * stride
            self.reactor.call_at(t_open, open_and_submit, rid, index)
            for round_no in range(1, rounds + 1):
                at = t_open + round_no * round_gap_us
                if round_no == epoch_bump_before_round and index == 0:
                    self.reactor.call_at(at - 1.0, self.engine.advance_epoch)
                self.reactor.call_at(at, burst, rid, index + round_no)

    def run(self) -> LoadReport:
        start_us = self.router.now_us
        self.tier.run()
        return self.tier.load_report(start_us)


__all__ = [
    "ModelTier",
    "ServingRun",
    "ServingScenario",
    "evaluation_set",
    "fleet_service",
    "node_ground_truth",
    "serving_run",
    "tenant_sessions",
]
