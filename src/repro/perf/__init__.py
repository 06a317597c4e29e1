"""repro.perf — tracked mapper performance (see README).

The subsystem has four parts:

- :mod:`repro.perf.harness` — times ``map_kernel`` over a case grid
  with warmup/repeat control (``repro bench``);
- :mod:`repro.perf.schema` — the ``BENCH_*.json`` document all
  benchmark producers share, plus baseline comparison with a
  regression threshold (``repro bench --compare``);
- :mod:`repro.perf.profile` — cProfile or flame-sample a single
  mapping (``repro profile``; sampling goes through
  :func:`repro.obs.flame.capture`, like ``--flame-out``);
- :mod:`repro.perf.ledger` — the append-only run ledger every
  bench/sweep/diff run records to (``repro history``,
  ``repro bench --compare-ledger``), a :mod:`repro.jsonl` log.
"""

from repro.perf import ledger
from repro.perf.harness import (
    BenchCase,
    default_cases,
    parse_case,
    render_bench,
    run_bench,
)
from repro.perf.profile import flame_case, profile_case
from repro.perf.schema import (
    BENCH_JSON_SCHEMA,
    bench_payload,
    compare_benchmarks,
    load_bench_file,
    parse_bench_payload,
    render_comparison,
)

__all__ = [
    "BENCH_JSON_SCHEMA",
    "BenchCase",
    "bench_payload",
    "compare_benchmarks",
    "default_cases",
    "flame_case",
    "ledger",
    "load_bench_file",
    "parse_bench_payload",
    "parse_case",
    "profile_case",
    "render_bench",
    "render_comparison",
    "run_bench",
]
