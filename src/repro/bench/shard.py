"""The shard scale-out benchmark (``shard-bench``).

Four seeded, deterministic phases — the sharding plane's acceptance
gates:

1. **Identity** — the same seeded workload against the unsharded
   baseline (one ``ObliviousStateBackend`` over one path tree) and a
   **1-shard** fleet.  A single-shard ring routes every key to shard 0,
   whose client is built with the same derived key and parameters, so
   the runs must be byte-identical: same Chrome trace JSON, same
   metrics snapshot, same ORAM wire trace (leaf sequence + final tree
   ciphertext), same logical world-state digest.
2. **Scale-out** — the workload across 1/2/4/8 shards.  Page accesses
   are independent single-page ORAM queries, so shard servers work in
   parallel; aggregate throughput is total queries over the *makespan*
   (the busiest shard's CPU time).  Gate: ≥ ``min_speedup``× at the
   largest fleet vs one shard — consistent-hash balance is what makes
   or breaks this, which is exactly why it is measured, not assumed.
3. **Per-shard distinguisher** — at the largest fleet, every shard's
   physical leaf trace is attacked separately (the idiom of
   ``bench_security_distinguisher``): frequency-rank matching must
   de-anonymize nothing, and the leaf histogram must pass chi-square
   uniformity.  Sharding must not create a *smaller* anonymity set
   whose skew an adversary could read.
4. **Mixed backends** — a fleet with pyramid shards among path shards
   (per-shard selection, the ``backend_for_working_set`` trade-off)
   returns bit-exact values for every read.

Everything runs on one host process over virtual time; throughput is
the simulated fleet's, not the host's.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field

from repro.bench.kit import (
    Artifacts,
    BenchReport,
    TracedRun,
    content_digest,
    identity_failures,
    identity_verdict,
    traced_run,
)
from repro.crypto.kdf import Drbg
from repro.hardware.timing import SimClock
from repro.oram import paging
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.hierarchical import HierarchicalOramServer
from repro.oram.server import OramServer
from repro.security.analysis import frequency_attack, path_uniformity_pvalue
from repro.security.observer import AccessPatternObserver
from repro.sharding.backend import (
    PATH_BACKEND,
    PYRAMID_BACKEND,
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    shard_key,
)
from repro.sharding.ring import ConsistentHashRing
from repro.state.account import Account, Address
from repro.state.backend import CODE_PAGE_SIZE, STORAGE_GROUP_SIZE

_READ_KINDS = ("meta", "storage", "code")


@dataclass
class ShardBenchConfig:
    """One shard-bench invocation: world size, load shape, fleet sizes."""

    seed: int = 1
    shard_counts: tuple[int, ...] = (1, 2, 4, 8)
    accounts: int = 64
    storage_groups_per_account: int = 2
    slots_per_group: int = 4
    code_pages_per_account: int = 2
    reads: int = 960
    # A hot subset keeps the workload honestly skewed (hot contracts),
    # the regime where balance and obliviousness are hardest.
    hot_accounts: int = 8
    hot_percent: int = 30
    oram_height: int = 8
    oram_bucket_size: int = 4
    stash_limit_blocks: int = 1024
    decrypt_memo_blocks: int | None = 4096
    query_cpu_us: float = 25.0
    # 256 vnodes keep the busiest of 8 shards under ~15% of the traffic
    # even with the hot-account skew — the balance the 6x gate rides on.
    vnodes: int = 256
    read_cost_us: float = 60.0  # virtual time the driver charges per read
    min_speedup: float = 6.0
    min_pvalue: float = 0.01
    mixed_shard_count: int = 4
    pyramid_cache_blocks: int = 48

    @property
    def max_shards(self) -> int:
        return max(self.shard_counts)

    @classmethod
    def smoke(cls, seed: int = 1) -> "ShardBenchConfig":
        """CI-sized: smaller world and fewer reads, same gates."""
        return cls(seed=seed, accounts=32, reads=480, oram_height=7)


def _master_key(config: ShardBenchConfig) -> bytes:
    return hashlib.sha256(b"hardtape-shard-bench|%d" % config.seed).digest()


def _build_accounts(config: ShardBenchConfig) -> dict[Address, Account]:
    """A deterministic world: every page's expected content is known."""
    accounts: dict[Address, Account] = {}
    for index in range(config.accounts):
        address = hashlib.blake2b(
            b"shardbench-acct-%d" % index, digest_size=20
        ).digest()
        storage: dict[int, int] = {}
        for group in range(config.storage_groups_per_account):
            base = group * STORAGE_GROUP_SIZE
            for slot in range(config.slots_per_group):
                storage[base + slot] = index * 100_000 + group * 1_000 + slot
        code_len = config.code_pages_per_account * CODE_PAGE_SIZE - 64
        code = bytes((index + offset) % 251 for offset in range(code_len))
        accounts[address] = Account(
            balance=10**9 + index,
            nonce=index % 7,
            code=code,
            storage=storage,
        )
    return accounts


def _workload_page_keys(
    accounts: dict[Address, Account], config: ShardBenchConfig
) -> list[bytes]:
    keys: list[bytes] = []
    for address, account in accounts.items():
        keys.append(paging.account_page_key(address))
        for group in range(config.storage_groups_per_account):
            keys.append(
                paging.storage_page_key(address, group * STORAGE_GROUP_SIZE)
            )
        for page in range(config.code_pages_per_account):
            keys.append(paging.code_page_key(address, page))
    return keys


# ----------------------------------------------------------------------
# Wire tap: the SP's view, hashed in arrival order
# ----------------------------------------------------------------------

def _tap_server(hasher, shard_id: int, server) -> None:
    """Hash every adversary-visible access event as it happens."""
    if isinstance(server, HierarchicalOramServer):

        def on_slot(event) -> None:
            hasher.update(b"S" + shard_id.to_bytes(2, "big"))
            hasher.update(event.level.to_bytes(2, "big"))
            hasher.update(event.bucket.to_bytes(4, "big"))
            hasher.update(struct.pack(">d", event.sim_time_us))

        server.add_observer(on_slot)
    else:

        def on_path(event) -> None:
            hasher.update(b"P" + shard_id.to_bytes(2, "big"))
            hasher.update(event.leaf.to_bytes(4, "big"))
            hasher.update(struct.pack(">d", event.sim_time_us))

        server.add_observer(on_path)


def _fold_ciphertext(hasher, shard_id: int, server) -> None:
    """Fold the final at-rest ciphertext into the wire hash."""
    hasher.update(b"T" + shard_id.to_bytes(2, "big"))
    if isinstance(server, HierarchicalOramServer):
        for level, buckets in sorted(server.snapshot_levels().items()):
            hasher.update(level.to_bytes(2, "big"))
            for bucket in buckets:
                for blob in bucket:
                    hasher.update(blob)
    else:
        for bucket in server.snapshot_tree():
            for blob in bucket:
                hasher.update(blob)


def _world_digest(shards: dict[int, tuple]) -> str:
    """SHA-256 over the merged logical content of every shard."""
    content: dict[bytes, bytes] = {}
    for _shard_id, (client, server) in sorted(shards.items()):
        content.update(client.logical_content(server))
    return content_digest(content)


# ----------------------------------------------------------------------
# The driven workload
# ----------------------------------------------------------------------

def _drive_reads(
    backend,
    accounts: dict[Address, Account],
    config: ShardBenchConfig,
    clock: SimClock,
    run: TracedRun,
) -> int:
    """Seeded read mix with inline verification; returns mismatches."""
    tracer, registry = run.tracer, run.metrics
    rng = Drbg(config.seed.to_bytes(8, "big"), personalization=b"shard-bench")
    addresses = sorted(accounts)
    hot = addresses[: config.hot_accounts]
    mismatches = 0
    for _ in range(config.reads):
        if rng.randint(100) < config.hot_percent:
            address = hot[rng.randint(len(hot))]
        else:
            address = addresses[rng.randint(len(addresses))]
        account = accounts[address]
        choice = rng.randint(3)
        kind = _READ_KINDS[choice]
        with tracer.span("shard.read", "oram_storage", kind=kind):
            if choice == 0:
                ok = backend.get_meta(address).balance == account.balance
            elif choice == 1:
                group = rng.randint(config.storage_groups_per_account)
                slot = group * STORAGE_GROUP_SIZE + rng.randint(
                    config.slots_per_group
                )
                ok = backend.get_storage(address, slot) == account.storage[slot]
            else:
                page_index = rng.randint(config.code_pages_per_account)
                expected = account.code[
                    page_index * CODE_PAGE_SIZE:(page_index + 1) * CODE_PAGE_SIZE
                ].ljust(CODE_PAGE_SIZE, b"\x00")
                ok = backend.get_code_page(address, page_index) == expected
            clock.advance_us(config.read_cost_us)
        registry.counter("shardbench.reads", kind=kind).inc()
        if not ok:
            mismatches += 1
    registry.histogram("shardbench.virtual_us").observe(clock.now_us)
    return mismatches


@dataclass
class _FleetRun:
    """What one run leaves behind for the gates."""

    artifacts: Artifacts
    mismatches: int
    total_queries: int
    makespan_us: float
    per_shard_queries: dict[int, int]
    per_shard_busy_us: dict[int, float]
    leaves_by_shard: dict[int, list[int]] = field(default_factory=dict)
    page_frequency: Counter = field(default_factory=Counter)

    @property
    def aggregate_tps(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.total_queries / (self.makespan_us / 1e6)

    @property
    def max_share(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return max(self.per_shard_queries.values()) / self.total_queries


def _server_queries(server) -> int:
    if isinstance(server, HierarchicalOramServer):
        return server.stats.bucket_reads
    return server.stats.reads


def _run_unsharded(config: ShardBenchConfig) -> _FleetRun:
    """The baseline: one path tree, shard-0 key, no ring anywhere."""
    clock = SimClock()
    wire = hashlib.sha256()
    with traced_run(clock, config.seed) as run:
        server = OramServer(
            height=config.oram_height,
            bucket_size=config.oram_bucket_size,
            query_cpu_us=config.query_cpu_us,
        )
        _tap_server(wire, 0, server)
        client = PathOramClient(
            server,
            shard_key(_master_key(config), 0),
            block_size=paging.PAGE_SIZE,
            stash_limit=config.stash_limit_blocks,
            decrypt_memo_blocks=config.decrypt_memo_blocks,
        )
        backend = ObliviousStateBackend(client, clock=lambda: clock.now_us)
        accounts = _build_accounts(config)
        backend.sync_world(accounts)
        mismatches = _drive_reads(backend, accounts, config, clock, run)
    return _collect(run, wire, {0: (client, server)}, mismatches)


def _run_fleet(
    config: ShardBenchConfig,
    shard_count: int,
    backend_overrides: dict[int, str] | None = None,
) -> _FleetRun:
    """One sharded run; collects per-shard traces for the gates."""
    clock = SimClock()
    wire = hashlib.sha256()
    with traced_run(clock, config.seed) as run:
        fleet_config = ShardedOramConfig(
            shard_count=shard_count,
            oram_height=config.oram_height,
            oram_bucket_size=config.oram_bucket_size,
            stash_limit_blocks=config.stash_limit_blocks,
            decrypt_memo_blocks=config.decrypt_memo_blocks,
            query_cpu_us=config.query_cpu_us,
            vnodes=config.vnodes,
            backend_overrides=dict(backend_overrides or {}),
            pyramid_cache_blocks=config.pyramid_cache_blocks,
        )
        fleet = ShardedOramFleet(fleet_config, _master_key(config))
        observers: dict[int, AccessPatternObserver] = {}
        for shard_id, shard in sorted(fleet.shards.items()):
            _tap_server(wire, shard_id, shard.server)
            if shard.backend == PATH_BACKEND:
                observers[shard_id] = AccessPatternObserver().attach(shard.server)
        backend = ShardedObliviousStateBackend(
            fleet, clock=lambda: clock.now_us
        )
        accounts = _build_accounts(config)
        backend.sync_world(accounts)
        for observer in observers.values():
            observer.clear()  # the distinguisher attacks the read phase
        read_log_start = len(backend.stats.log)
        mismatches = _drive_reads(backend, accounts, config, clock, run)
    return _collect(
        run,
        wire,
        {
            shard_id: (shard.client, shard.server)
            for shard_id, shard in fleet.shards.items()
        },
        mismatches,
        leaves_by_shard={
            shard_id: list(observer.leaves)
            for shard_id, observer in sorted(observers.items())
        },
        page_frequency=Counter(
            record.page_key for record in backend.stats.log[read_log_start:]
        ),
    )


def _collect(run: TracedRun, wire, shards: dict[int, tuple], mismatches: int,
             **observed) -> _FleetRun:
    """Fold every shard's at-rest ciphertext into the wire hash, then
    hash the run and tally per-shard load."""
    servers = {
        shard_id: server for shard_id, (_client, server) in sorted(shards.items())
    }
    for shard_id, server in servers.items():
        _fold_ciphertext(wire, shard_id, server)
    return _FleetRun(
        artifacts=run.artifacts(
            wire=wire.hexdigest(), digest=_world_digest(shards)
        ),
        mismatches=mismatches,
        total_queries=sum(_server_queries(s) for s in servers.values()),
        makespan_us=max(s.stats.busy_time_us for s in servers.values()),
        per_shard_queries={
            shard_id: _server_queries(s) for shard_id, s in servers.items()
        },
        per_shard_busy_us={
            shard_id: s.stats.busy_time_us for shard_id, s in servers.items()
        },
        **observed,
    )


# ----------------------------------------------------------------------
# Per-shard distinguisher (the bench_security_distinguisher idiom)
# ----------------------------------------------------------------------

def _distinguisher_rows(
    run: _FleetRun, config: ShardBenchConfig
) -> list[dict]:
    """Attack each shard's leaf trace separately.

    Truth per shard: that shard's page keys ranked by their true
    (driver-known) access frequency — the public knowledge a chain
    adversary holds.  The frequency attack maps leaf ranks onto it and
    must de-anonymize nothing; chi-square checks leaf uniformity.
    """
    leaf_count = 2 ** config.oram_height
    # Reconstruct shard ownership with the fleet's own (default) ring.
    ring = ConsistentHashRing(
        range(len(run.per_shard_queries)), vnodes=config.vnodes
    )
    by_shard: dict[int, list[tuple[int, bytes]]] = {
        shard_id: [] for shard_id in run.per_shard_queries
    }
    for page_key, count in run.page_frequency.items():
        by_shard[ring.shard_for(page_key)].append((count, page_key))
    rows = []
    for shard_id, leaves in sorted(run.leaves_by_shard.items()):
        ranking = [
            key
            for _count, key in sorted(
                by_shard[shard_id], key=lambda item: (-item[0], item[1])
            )
        ][:16]
        handles = [leaf.to_bytes(4, "big") for leaf in leaves]
        samples = len(leaves)
        bins = 8 if samples >= 40 else 4
        pvalue = (
            path_uniformity_pvalue(leaves, leaf_count, bins=bins)
            if samples >= bins * 5
            else 0.0
        )
        rows.append(
            {
                "shard": shard_id,
                "samples": samples,
                "frequency_accuracy": frequency_attack(handles, ranking),
                "uniformity_pvalue": pvalue,
                "bins": bins,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Report + gates
# ----------------------------------------------------------------------

@dataclass
class ShardBenchReport(BenchReport):
    bench = "shard-scaleout"

    identity: dict[str, bool]
    baseline: dict
    scaleout: list[dict]
    speedup: float
    distinguisher: list[dict]
    mixed: dict
    ring: dict

    def report_lines(self) -> list[str]:
        lines = [
            "identity (unsharded vs 1-shard fleet, seeded): "
            + identity_verdict(self.identity),
        ]
        lines.append("| shards | queries | makespan (ms) | agg. tx/s | max share |")
        lines.append("|-------:|--------:|--------------:|----------:|----------:|")
        for row in self.scaleout:
            lines.append(
                f"| {row['shards']} | {row['total_queries']} "
                f"| {row['makespan_us'] / 1000:.2f} "
                f"| {row['aggregate_tps']:.0f} | {row['max_share']:.1%} |"
            )
        lines.append(
            f"speedup at {self.scaleout[-1]['shards']} shards: "
            f"{self.speedup:.2f}x (gate >= {self.ring['min_speedup']}x)"
        )
        worst = min(
            (row["uniformity_pvalue"] for row in self.distinguisher), default=1.0
        )
        lines.append(
            f"per-shard distinguisher: frequency accuracy "
            f"{max(row['frequency_accuracy'] for row in self.distinguisher):.2f}, "
            f"worst uniformity p-value {worst:.3f} across "
            f"{len(self.distinguisher)} shards"
        )
        lines.append(
            f"mixed fleet ({self.mixed['backends']}): "
            + ("all reads bit-exact" if self.mixed["ok"] else "MISMATCHES")
        )
        lines.append(
            f"ring: {self.ring['pages']} pages, add-shard remap "
            f"{self.ring['remap_fraction']:.1%} "
            f"(~1/{self.ring['shards']} expected), "
            f"digest {self.ring['table_digest'][:12]}"
        )
        return lines


def run_shard_bench(config: ShardBenchConfig) -> ShardBenchReport:
    if 1 not in config.shard_counts:
        raise ValueError("shard_counts must include 1 (the identity anchor)")
    unsharded = _run_unsharded(config)
    runs = {
        count: _run_fleet(config, count) for count in sorted(config.shard_counts)
    }
    one = runs[1]
    identity = unsharded.artifacts.identity(one.artifacts)

    scaleout = [
        {
            "shards": count,
            "total_queries": run.total_queries,
            "makespan_us": run.makespan_us,
            "aggregate_tps": run.aggregate_tps,
            "max_share": run.max_share,
            "per_shard_queries": {
                str(sid): queries for sid, queries in run.per_shard_queries.items()
            },
        }
        for count, run in runs.items()
    ]
    top = runs[config.max_shards]
    speedup = top.aggregate_tps / runs[1].aggregate_tps if runs[1].aggregate_tps else 0.0
    distinguisher = _distinguisher_rows(top, config)

    # Mixed fleet: pyramid on alternating shards, path on the rest —
    # the per-shard selection backend_for_working_set drives in a real
    # deployment, exercised explicitly here.
    overrides = {
        shard_id: PYRAMID_BACKEND
        for shard_id in range(1, config.mixed_shard_count, 2)
    }
    mixed_run = _run_fleet(config, config.mixed_shard_count, overrides)
    mixed = {
        "shards": config.mixed_shard_count,
        "backends": "+".join(
            sorted({PATH_BACKEND, PYRAMID_BACKEND})
        ),
        "pyramid_shards": sorted(overrides),
        "mismatches": mixed_run.mismatches,
        "ok": mixed_run.mismatches == 0,
    }

    # Ring movement: adding shard N to an (N-1)-shard ring moves ~1/N
    # of the workload's pages and nothing else (measured, not assumed).
    accounts = _build_accounts(config)
    pages = _workload_page_keys(accounts, config)
    big = ConsistentHashRing(range(config.max_shards), vnodes=config.vnodes)
    small = big.without_shard(config.max_shards - 1)
    moved = sum(1 for key in pages if big.shard_for(key) != small.shard_for(key))
    ring = {
        "shards": config.max_shards,
        "vnodes": config.vnodes,
        "pages": len(pages),
        "remap_fraction": moved / len(pages),
        "table_digest": big.table_digest(),
        "min_speedup": config.min_speedup,
    }

    failures = identity_failures(
        identity, "the 1-shard fleet", "the seeded baseline run"
    )
    for count, run in runs.items():
        if run.mismatches:
            failures.append(
                f"{run.mismatches} read mismatch(es) at {count} shard(s)"
            )
    if unsharded.mismatches:
        failures.append(f"{unsharded.mismatches} read mismatch(es) unsharded")
    if speedup < config.min_speedup:
        failures.append(
            f"aggregate speedup {speedup:.2f}x at {config.max_shards} shards "
            f"is below the {config.min_speedup}x gate"
        )
    for row in distinguisher:
        if row["samples"] < 20:
            failures.append(
                f"shard {row['shard']}: only {row['samples']} leaf samples "
                f"(need >= 20 for the uniformity test)"
            )
            continue
        if row["frequency_accuracy"] > 0.0:
            failures.append(
                f"shard {row['shard']}: frequency attack de-anonymized "
                f"{row['frequency_accuracy']:.0%} of the ranking"
            )
        if row["uniformity_pvalue"] <= config.min_pvalue:
            failures.append(
                f"shard {row['shard']}: leaf uniformity p-value "
                f"{row['uniformity_pvalue']:.4f} <= {config.min_pvalue}"
            )
    if not mixed["ok"]:
        failures.append(
            f"mixed path+pyramid fleet returned {mixed['mismatches']} "
            f"mismatched read(s)"
        )
    if ring["remap_fraction"] > 2.5 / config.max_shards:
        failures.append(
            f"ring remapped {ring['remap_fraction']:.1%} of pages on shard "
            f"add; bound is ~{1 / config.max_shards:.1%} (2.5x tolerance)"
        )

    def _obj(run: _FleetRun) -> dict:
        return {
            "trace_hash": run.artifacts.trace,
            "metrics_hash": run.artifacts.metrics,
            "wire_hash": run.artifacts.wire,
            "digest": run.artifacts.digest,
            "total_queries": run.total_queries,
            "makespan_us": run.makespan_us,
            "aggregate_tps": run.aggregate_tps,
        }

    return ShardBenchReport(
        seed=config.seed,
        identity=identity,
        baseline=_obj(unsharded),
        scaleout=scaleout,
        speedup=speedup,
        distinguisher=distinguisher,
        mixed=mixed,
        ring=ring,
        gate_failures=failures,
    )


__all__ = [
    "ShardBenchConfig",
    "ShardBenchReport",
    "run_shard_bench",
]
