"""The ``*-bench`` subcommand registry.

Each bench is one :class:`BenchCommand` declaration: its name, config
class (with ``.smoke(seed)``), run function and any extra flags.  The
CLI builds every parser from :data:`BENCHES`; the shared ``--seed``
(non-negative 64-bit), ``--smoke`` and ``--json-out`` handling and the
"print the summary, write the report, fail on gates" flow live here
once.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.c10k import C10kBenchConfig, run_c10k_bench
from repro.bench.obs import ObsBenchConfig, run_obs_bench
from repro.bench.perf import PerfBenchConfig, run_perf_bench
from repro.bench.receipt import ReceiptBenchConfig, run_receipt_bench
from repro.bench.recovery import RecoveryBenchConfig, run_recovery_bench
from repro.bench.shard import ShardBenchConfig, run_shard_bench
from repro.bench.trace import trace_bench_main

SMOKE_HELP = "CI-sized run (same gates, faster)"


def seed64(text: str) -> int:
    """``--seed`` type: a non-negative integer below 2**64."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(
            f"invalid --seed {seed}: must be a non-negative 64-bit integer"
        )
    return seed


def flag(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    return names, options


@dataclass(frozen=True)
class BenchCommand:
    """One ``<name>`` subcommand.

    A report bench names its ``config`` class and ``run`` function and
    gets ``--smoke``/``--json-out`` plus the shared report flow;
    ``configure`` copies its extra ``flags`` into the config.  A bench
    with its own flow supplies ``main`` instead.
    """

    name: str
    help: str
    seed: int = 1
    config: type | None = None
    run: Callable[[Any], Any] | None = None
    smoke_help: str = SMOKE_HELP
    flags: tuple[tuple[tuple[str, ...], dict], ...] = ()
    configure: Callable[[Any, argparse.Namespace], None] | None = None
    main: Callable[[argparse.Namespace], int] | None = None

    @property
    def short(self) -> str:
        return self.name.removesuffix("-bench")

    def add_parser(self, subparsers) -> None:
        parser = subparsers.add_parser(self.name, help=self.help)
        parser.add_argument("--seed", type=seed64, default=self.seed,
                            help="run seed (non-negative, 64-bit)")
        if self.main is None:
            parser.add_argument("--smoke", action="store_true",
                                help=self.smoke_help)
            parser.add_argument(
                "--json-out", default="",
                help=f"write the BENCH_{self.short}.json report here",
            )
        for names, options in self.flags:
            parser.add_argument(*names, **options)
        parser.set_defaults(func=self.main or self.run_report)

    def run_report(self, args: argparse.Namespace) -> int:
        """Run, print the summary, write ``--json-out``, gate on ``passed``."""
        config = (
            self.config.smoke(seed=args.seed) if args.smoke
            else self.config(seed=args.seed)
        )
        if self.configure is not None:
            self.configure(config, args)
        report = self.run(config)
        for line in report.summary_lines():
            print(line)
        if args.json_out:
            with open(args.json_out, "w") as handle:
                handle.write(report.to_json())
            print(f"wrote {args.json_out}")
        if not report.passed:
            print(f"{self.short.upper()}-BENCH FAILED: "
                  + "; ".join(report.gate_failures), file=sys.stderr)
            return 1
        return 0


def _set_min_speedup(config: PerfBenchConfig, args) -> None:
    config.min_speedup = args.min_speedup


def _set_sessions(config: C10kBenchConfig, args) -> None:
    if args.sessions:
        config.concurrency_target = args.sessions


BENCHES: tuple[BenchCommand, ...] = (
    BenchCommand(
        "trace-bench",
        "traced gateway run + critical-path attribution (repro.bench.trace)",
        seed=7,
        main=trace_bench_main,
        flags=(
            flag("--sample-rate", type=float, default=1.0,
                 help="fraction of requests to trace, in [0, 1]"),
            flag("--devices", type=int, default=2,
                 help="HarDTAPE devices in the fleet"),
            flag("--tenants", type=int, default=3),
            flag("--requests", type=int, default=4,
                 help="requests per tenant (closed loop)"),
            flag("--blocks", type=int, default=2),
            flag("--txs-per-block", type=int, default=6),
            flag("--trace-out", default="",
                 help="write the Chrome trace JSON here"),
            flag("--metrics-out", default="",
                 help="write the Prometheus text exposition here"),
            flag("--skip-determinism-check", action="store_true",
                 help="skip the byte-identity re-run"),
        ),
    ),
    BenchCommand(
        "perf-bench",
        "before/after speedup of the crypto/ORAM substrate (repro.bench.perf)",
        seed=7,
        config=PerfBenchConfig,
        run=run_perf_bench,
        smoke_help="CI-sized workload (same checks, ~10x faster)",
        flags=(
            flag("--min-speedup", type=float, default=3.0,
                 help="fail below this optimized/baseline ratio"),
        ),
        configure=_set_min_speedup,
    ),
    BenchCommand(
        "recovery-bench",
        "crash/restart chaos + rollback-attack gates (repro.bench.recovery)",
        config=RecoveryBenchConfig,
        run=run_recovery_bench,
    ),
    BenchCommand(
        "shard-bench",
        "sharded ORAM fleet: identity, scale-out, per-shard "
        "distinguisher (repro.bench.shard)",
        config=ShardBenchConfig,
        run=run_shard_bench,
    ),
    BenchCommand(
        "c10k-bench",
        "async serving tier: 10k concurrent sessions, resumption "
        "cost + identity gates (repro.bench.c10k)",
        config=C10kBenchConfig,
        run=run_c10k_bench,
        smoke_help="CI-sized run (the 10k concurrency gate stays; "
                   "side scenarios shrink)",
        flags=(
            flag("--sessions", type=int, default=0,
                 help="override the concurrency target"),
        ),
        configure=_set_sessions,
    ),
    BenchCommand(
        "obs-bench",
        "observability plane: arming-is-invisible identity, three-way "
        "trace reconciliation, deterministic fault alerts "
        "(repro.bench.obs)",
        config=ObsBenchConfig,
        run=run_obs_bench,
    ),
    BenchCommand(
        "receipt-bench",
        "signed pre-execution receipts: Byzantine detection, "
        "quarantine healing, receipts-invisible identity, sublinear "
        "audit cost (repro.bench.receipt)",
        config=ReceiptBenchConfig,
        run=run_receipt_bench,
    ),
)


__all__ = ["BENCHES", "BenchCommand", "seed64"]
