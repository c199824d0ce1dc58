"""repro.bench — the seeded bench harnesses and their twin-run kit.

Every ``*-bench`` subcommand's engine lives here, one module each:
:mod:`~repro.bench.trace`, :mod:`~repro.bench.perf`,
:mod:`~repro.bench.recovery`, :mod:`~repro.bench.shard`,
:mod:`~repro.bench.c10k`, :mod:`~repro.bench.obs`,
:mod:`~repro.bench.receipt`, plus the chaos harness
:mod:`~repro.bench.chaos`.  They share:

* :mod:`~repro.bench.kit` — :func:`traced_run`, the :class:`Artifacts`
  hash record behind every byte-identity gate, and :class:`BenchReport`;
* :mod:`~repro.bench.scenario` — the fleet, tenant-session, serving-run
  and model-tier builders;
* :mod:`~repro.bench.registry` — one :class:`BenchCommand` per CLI
  subcommand.

Layering: this package imports the planes it measures; no plane ever
imports it.  Import the bench modules directly.
"""
