"""Profile-guided performance substrate (ISSUE 4).

Three independent levers over the repo's dominant wall-clock sink — the
pure-Python AES-GCM/ORAM substrate — none of which changes a single
simulated byte:

* :mod:`repro.perf.memo` — decrypt memoization: a bounded LRU of
  plaintexts keyed by ciphertext identity, exploiting that AEAD
  decryption is pure and ORAM path reads mostly re-open blocks the
  client itself sealed;
* :mod:`repro.perf.parallel` — deterministic multiprocessing fan-out
  for benchmark sweeps, with seed-ordered reduction;
* :mod:`repro.perf.reference` — the frozen pre-optimization crypto the
  ``perf-bench`` engine (:mod:`repro.bench.perf`) compares against.
"""

from repro.perf.memo import MemoizedAead, MemoStats
from repro.perf.parallel import default_worker_count, run_parallel
from repro.perf.reference import ReferenceAesGcm

__all__ = [
    "MemoStats",
    "MemoizedAead",
    "ReferenceAesGcm",
    "default_worker_count",
    "run_parallel",
]
