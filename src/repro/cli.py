"""Command-line interface: ``python -m repro <command>``.

Commands mirror the user journeys of the examples:

- ``map KERNEL``    — map a paper kernel and print the mapping summary
  plus the per-tile context-usage chart (the Fig 2 view);
- ``run KERNEL``    — map, assemble, simulate, verify against the
  reference, and print cycles vs the CPU baseline;
- ``energy KERNEL`` — one Table II row with component breakdowns;
- ``area``          — the Fig 11 area comparison;
- ``kernels``       — list the available kernels;
- ``sweep``         — batch-run kernels × configs × flow variants in
  parallel (``--workers N``) against the persistent result cache
  (``--no-cache`` / ``--clear-cache`` to bypass or wipe it); with
  ``--shard i/N`` runs one deterministic slice of the batch and with
  ``--json`` emits a machine-readable result payload that a later
  ``merge`` reassembles; ``--backend`` picks the execution backend
  (see :mod:`repro.runtime.backends`);
- ``diff``          — run the suite through two backends and compare
  per-point cycles/outputs within configurable tolerances
  (``--backends``, ``--abs-tol``, ``--rel-tol``); exits 4 on any
  out-of-tolerance mismatch — the CI differential lane;
- ``merge``         — combine N shard JSON files back into the one
  sweep result the unsharded run would have produced;
- ``cache``         — manage the persistent result cache
  (``stats`` / ``prune`` / ``clear``);
- ``figure NAME``   — regenerate one paper figure/table; the
  mapping-bound ones accept ``--workers``, ``--shard`` (distributed
  prewarm) and ``--json``;
- ``explore``       — design-space exploration (see
  :mod:`repro.dse`): search homogeneous ladders, Table I, banded and
  per-tile heterogeneous CM assignments with a pluggable strategy
  (``--strategy exhaustive|random|adaptive``, ``--budget``,
  ``--objectives``) and report the Pareto frontier; ``--shard i/N``
  prewarms one slice of the exhaustive grid, ``--json`` emits the
  exploration document;
- ``bench``         — time ``map_kernel`` across benchmark cases with
  warmup/repeat control and emit/compare the ``BENCH_*.json`` perf
  document (``--compare BASELINE.json --max-regress PCT`` exits
  non-zero on regression; see :mod:`repro.perf`);
- ``analyze FILE``  — the critical path / self-time / occupancy /
  straggler report of a Chrome trace that ``sweep``/``diff``/
  ``submit``/``explore`` wrote with ``--trace-out FILE`` (load the
  same file in Perfetto or ``chrome://tracing``; see
  :mod:`repro.obs`);
- ``metrics``       — print the Prometheus text exposition of this
  process's metric registry, or scrape a running server's
  ``/metrics`` with ``--server URL``;
- ``profile``       — cProfile one mapping and print the top
  functions, so perf work starts from data; ``--flame`` switches to
  the zero-overhead sampling profiler with collapsed-stack output
  (``--flame-out``; ``sweep``/``bench`` accept the same flag);
- ``history``       — render the persistent run ledger every
  bench/sweep/diff run appends to (see :mod:`repro.perf.ledger`);
- ``report``        — write the self-contained watchtower dashboard
  HTML (ledger trends, critical path, metrics snapshot; also served
  at ``GET /dashboard``);
- ``serve``         — expose sweeps and explorations over HTTP
  (``--port``, ``--workers``, job retention via
  ``--max-finished-jobs``/``--job-ttl``): submission, status, NDJSON
  point streaming, cache stats (see :mod:`repro.serve`);
- ``serve --resume``  replays the durable job journal on startup,
  requeueing jobs a killed server left queued or running under
  their original IDs (see :mod:`repro.serve.journal`);
- ``submit``        — dispatch a sweep to one ``repro serve``
  instance — or, with ``--shard-across``, shard it across several
  and merge the streamed results locally;
- ``chaos``         — run the same sweep clean and under an injected
  fault plan (``--faults`` / ``$REPRO_FAULT``: worker crashes,
  point hangs, cache corruption) and exit 5 unless the self-healing
  runtime converged the faulted runs to the clean answer
  (see :mod:`repro.chaos`).

Sweeps and figure prewarms stream one progress line per landed point
to stderr, so stdout stays clean for tables and JSON; ``--quiet`` (or
``REPRO_QUIET=1``) silences those lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from repro.arch.configs import CGRA_CONFIGS, get_config
from repro.codegen.assembler import assemble
from repro.codegen.listing import usage_chart
from repro.errors import ReproError, UnmappableError
from repro.kernels import PAPER_KERNEL_ORDER, get_kernel
from repro.mapping.flow import VARIANTS, map_kernel
from repro.sim.cgra import CGRASimulator
from repro.sim.cpu import CPUModel


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-memory aware CGRA mapping (DATE 2019 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("kernel", choices=PAPER_KERNEL_ORDER)
        p.add_argument("--config", default="HET1",
                       choices=sorted(CGRA_CONFIGS))
        p.add_argument("--flow", default="full",
                       choices=sorted(VARIANTS))
        p.add_argument("--seed", type=int, default=7)

    def add_cache_flags(p):
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result cache")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default ~/.cache/repro "
                            "or $REPRO_CACHE_DIR)")

    def add_quiet(p):
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines on "
                            "stderr (also $REPRO_QUIET=1)")

    add_common(sub.add_parser("map", help="map a kernel, show usage"))
    add_common(sub.add_parser("run", help="map + simulate + verify"))
    energy = sub.add_parser("energy", help="energy breakdown row")
    add_common(energy)
    add_cache_flags(energy)
    sub.add_parser("area", help="Fig 11 area comparison")
    sub.add_parser("kernels", help="list available kernels")

    sweep = sub.add_parser(
        "sweep", help="batch-run experiment points in parallel")
    sweep.add_argument("--kernels", default=None,
                       help="comma-separated kernels (default: all)")
    sweep.add_argument("--configs", default=None,
                       help="comma-separated configs (default: "
                            "HOM64,HOM32,HET1,HET2)")
    sweep.add_argument("--variants", default=None,
                       help="comma-separated flow variants "
                            "(default: all)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock deadline: an "
                            "overrunning point's worker is reaped "
                            "and the point retried, then yielded as "
                            "a timeout error (default "
                            "$REPRO_POINT_TIMEOUT, else unlimited)")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--backend", default=None,
                       help="execution backend: analytic (default) "
                            "or cycle — see repro.runtime.backends")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="wipe the cache before running")
    sweep.add_argument("--shard", default=None, metavar="I/N",
                       help="run only shard I of N (deterministic, "
                            "disjoint, cost-balanced slices)")
    sweep.add_argument("--cache-balanced", action="store_true",
                       help="balance shards by residual (uncached) "
                            "cost — every shard producer must see "
                            "the same shared cache")
    sweep.add_argument("--json", action="store_true",
                       help="emit a machine-readable result payload "
                            "on stdout instead of the table")
    sweep.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record pipeline spans and write Chrome "
                            "trace JSON to FILE (Perfetto-loadable)")
    sweep.add_argument("--flame-out", default=None, metavar="FILE",
                       help="sample the driving thread during the "
                            "sweep and write collapsed flame stacks "
                            "to FILE")
    add_cache_flags(sweep)
    add_quiet(sweep)

    diff = sub.add_parser(
        "diff", help="run specs through two backends and compare "
                     "cycles/outputs (see repro.runtime.diff)")
    diff.add_argument("--kernels", default=None,
                      help="comma-separated kernels (default: all)")
    diff.add_argument("--configs", default=None,
                      help="comma-separated configs (default: "
                           "HOM64,HOM32,HET1,HET2)")
    diff.add_argument("--variants", default=None,
                      help="comma-separated flow variants "
                           "(default: all)")
    diff.add_argument("--seed", type=int, default=7)
    diff.add_argument("--backends", default=None, metavar="A,B",
                      help="the two backends to compare "
                           "(default analytic,cycle)")
    diff.add_argument("--abs-tol", type=float, default=None,
                      help="absolute cycle tolerance (default 2; "
                           "measured bound is 1)")
    diff.add_argument("--rel-tol", type=float, default=None,
                      help="relative cycle tolerance vs the first "
                           "backend (default 0.01)")
    diff.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff report as JSON on stdout")
    diff.add_argument("--out", default=None, metavar="FILE",
                      help="also write the JSON report to FILE "
                           "(the CI artifact)")
    diff.add_argument("--trace-out", default=None, metavar="FILE",
                      help="record pipeline spans and write Chrome "
                           "trace JSON to FILE (Perfetto-loadable)")
    add_cache_flags(diff)
    add_quiet(diff)

    merge = sub.add_parser(
        "merge", help="combine shard JSON result files into one sweep")
    merge.add_argument("files", nargs="+",
                       help="JSON files written by sweep/figure --json")
    merge.add_argument("--json", action="store_true",
                       help="emit the merged payload as JSON")

    cache = sub.add_parser(
        "cache", help="manage the persistent result cache")
    cache.add_argument("action", choices=("stats", "prune", "clear"))
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default ~/.cache/repro "
                            "or $REPRO_CACHE_DIR)")
    cache.add_argument("--max-bytes", default=None,
                       help="byte cap for prune, e.g. 4096 / 512K / "
                            "64M / 2G (default $REPRO_CACHE_MAX_BYTES)")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable stats")

    # Mirrors experiments.FIGURE_NAMES (cross-checked by a test);
    # kept literal so building the parser never imports the whole
    # eval/experiments stack for commands that don't touch figures.
    figure = sub.add_parser(
        "figure", help="regenerate one paper figure/table")
    figure.add_argument("name", choices=(
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "table2"))
    figure.add_argument("--workers", type=int, default=1,
                        help="worker processes for the mapping-bound "
                             "figures (fig6-8, fig10, table2)")
    figure.add_argument("--shard", default=None, metavar="I/N",
                        help="compute only shard I of N of this "
                             "figure's points (distributed prewarm); "
                             "emits the partial sweep, not the figure")
    figure.add_argument("--cache-balanced", action="store_true",
                        help="balance shards by residual (uncached) "
                             "cost — every shard producer must see "
                             "the same shared cache")
    figure.add_argument("--json", action="store_true",
                        help="emit the figure data (or the shard "
                             "payload) as JSON")
    add_cache_flags(figure)
    add_quiet(figure)

    explore = sub.add_parser(
        "explore", help="design-space exploration (see repro.dse)")
    explore.add_argument("--space", default="ladder,table1",
                         help="comma-separated design generators: "
                              "ladder,table1,rowband,colband,tiles "
                              "(default ladder,table1)")
    explore.add_argument("--depths", default=None,
                         help="comma-separated CM depths for the "
                              "ladder/banded/tiles spaces "
                              "(default 8,16,24,32,48,64)")
    explore.add_argument("--samples", type=int, default=None,
                         help="sampled per-tile designs for the "
                              "'tiles' space (default 8)")
    explore.add_argument("--kernels", default=None,
                         help="comma-separated kernels (default: all)")
    explore.add_argument("--variant", default=None,
                         help="flow variant to evaluate under "
                              "(default full)")
    explore.add_argument("--strategy", default=None,
                         help="search strategy: exhaustive, random "
                              "or adaptive (default exhaustive)")
    explore.add_argument("--budget", type=int, default=None,
                         help="max evaluated (design, kernel) points "
                              "(default unlimited)")
    explore.add_argument("--objectives", default=None,
                         help="comma-separated subset of "
                              "energy,latency,cm_area,mappability "
                              "(default all four)")
    explore.add_argument("--seed", type=int, default=None,
                         help="input seed; also drives the random "
                              "strategy's sampling")
    explore.add_argument("--backend", default=None,
                         help="execution backend for every evaluated "
                              "point (default analytic)")
    explore.add_argument("--rows", type=int, default=None,
                         help="array rows for generated designs "
                              "(default 4)")
    explore.add_argument("--cols", type=int, default=None,
                         help="array columns for generated designs "
                              "(default 4)")
    explore.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial)")
    explore.add_argument("--shard", default=None, metavar="I/N",
                         help="prewarm only shard I of N of the "
                              "exhaustive design x kernel grid into "
                              "the shared cache (emits the partial "
                              "sweep, not the frontier)")
    explore.add_argument("--cache-balanced", action="store_true",
                         help="balance shards by residual (uncached) "
                              "cost — every shard producer must see "
                              "the same shared cache")
    explore.add_argument("--json", action="store_true",
                         help="emit the exploration document (or the "
                              "shard payload) as JSON")
    explore.add_argument("--trace-out", default=None, metavar="FILE",
                         help="record pipeline spans and write Chrome "
                              "trace JSON to FILE (Perfetto-loadable)")
    add_cache_flags(explore)
    add_quiet(explore)

    bench = sub.add_parser(
        "bench", help="time map_kernel across cases (see repro.perf)")
    bench.add_argument("--cases", default=None,
                       help="comma-separated kernel@CONFIG/variant "
                            "cases (overrides the axes)")
    bench.add_argument("--kernels", default=None,
                       help="comma-separated kernels (default: all)")
    bench.add_argument("--configs", default=None,
                       help="comma-separated configs (default: HOM32)")
    bench.add_argument("--variants", default=None,
                       help="comma-separated flow variants "
                            "(default: full)")
    bench.add_argument("--warmup", type=int, default=1,
                       help="unrecorded runs per case (default 1)")
    bench.add_argument("--repeat", type=int, default=3,
                       help="recorded runs per case (default 3)")
    bench.add_argument("--reducer", default="min",
                       choices=("min", "median", "mean"),
                       help="statistic over the repeats (default min "
                            "— mapping is deterministic, noise only "
                            "adds)")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="also write the JSON document to FILE")
    bench.add_argument("--json", action="store_true",
                       help="emit the benchmark document on stdout")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="compare against a BENCH_*.json baseline; "
                            "exit 3 on regression")
    bench.add_argument("--max-regress", type=float, default=None,
                       metavar="PCT",
                       help="allowed per-case slowdown vs the "
                            "--compare / --compare-ledger baseline "
                            "(default 25%%; rejected without either)")
    bench.add_argument("--compare-ledger", action="store_true",
                       help="gate against the rolling median of the "
                            "last --window same-host bench runs in "
                            "the run ledger; exit 3 on regression")
    bench.add_argument("--window", type=int, default=None, metavar="N",
                       help="ledger entries in the rolling median "
                            "(default 5; rejected without "
                            "--compare-ledger)")
    bench.add_argument("--flame-out", default=None, metavar="FILE",
                       help="sample the bench thread and write "
                            "collapsed flame stacks to FILE")
    bench.add_argument("--cache-dir", default=None,
                       help="directory holding the run ledger "
                            "(default ~/.cache/repro or "
                            "$REPRO_CACHE_DIR)")
    add_quiet(bench)

    profile = sub.add_parser(
        "profile", help="cProfile one map_kernel run (see repro.perf)")
    profile.add_argument("--kernel", required=True,
                        choices=PAPER_KERNEL_ORDER)
    profile.add_argument("--config", default="HOM32",
                        choices=sorted(CGRA_CONFIGS))
    profile.add_argument("--variant", default="full",
                        choices=sorted(VARIANTS))
    profile.add_argument("--top", type=int, default=20,
                        help="functions to print (default 20)")
    profile.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    profile.add_argument("--flame", action="store_true",
                        help="sample with the zero-overhead wall-"
                             "clock profiler instead of cProfile "
                             "(collapsed-stack flame output)")
    profile.add_argument("--hz", type=float, default=None,
                        help="sampling rate for --flame "
                             "(default 97)")
    profile.add_argument("--repeat", type=int, default=5,
                        help="mappings sampled under one --flame "
                             "profile (default 5 — one mapping is "
                             "too fast to sample)")
    profile.add_argument("--flame-out", default=None, metavar="FILE",
                        help="write collapsed flame stacks to FILE "
                             "(flamegraph.pl / speedscope input)")

    analyze_cmd = sub.add_parser(
        "analyze", help="analyze a saved --trace-out file "
                        "(see repro.obs.analyze)")
    analyze_cmd.add_argument("file", metavar="FILE",
                             help="Chrome trace JSON written by "
                                  "--trace-out")
    analyze_cmd.add_argument("--json", action="store_true",
                             help="emit the trace-analysis payload "
                                  "as JSON on stdout")

    history = sub.add_parser(
        "history", help="render the persistent run ledger "
                        "(see repro.perf.ledger)")
    history.add_argument("--command", dest="filter_command",
                         default=None,
                         choices=("bench", "sweep", "diff"),
                         help="only entries from this command")
    history.add_argument("--limit", type=int, default=20,
                         help="newest entries shown (default 20)")
    history.add_argument("--json", action="store_true",
                         help="emit the entries as JSON")
    history.add_argument("--cache-dir", default=None,
                         help="directory holding the run ledger "
                              "(default ~/.cache/repro or "
                              "$REPRO_CACHE_DIR)")

    report = sub.add_parser(
        "report", help="write the watchtower dashboard HTML "
                       "(see repro.obs.report)")
    report.add_argument("--out", default="report.html", metavar="FILE",
                        help="output file (default report.html; "
                             "'-' for stdout)")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="fold the critical-path analysis of "
                             "this saved --trace-out file into the "
                             "report")
    report.add_argument("--limit", type=int, default=50,
                        help="newest ledger entries charted "
                             "(default 50)")
    add_cache_flags(report)

    metrics_cmd = sub.add_parser(
        "metrics", help="print Prometheus metrics (local registry or "
                        "a server's /metrics)")
    metrics_cmd.add_argument("--server", default=None, metavar="URL",
                             help="scrape URL/metrics from a running "
                                  "repro serve instead of the local "
                                  "registry")
    add_cache_flags(metrics_cmd)

    serve = sub.add_parser(
        "serve", help="expose sweeps over HTTP (see repro.serve)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 = ephemeral; default 8000)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes per sweep job")
    serve.add_argument("--max-finished-jobs", type=int, default=None,
                       help="finished jobs retained before eviction "
                            "(default 64)")
    serve.add_argument("--job-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="age after which finished jobs evict "
                            "(default 21600 = 6h)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="jobs run concurrently, sharing the "
                            "--workers pool (default 4)")
    serve.add_argument("--max-queued", type=int, default=None,
                       metavar="N",
                       help="queued jobs beyond which POSTs answer "
                            "429 + Retry-After (default 128)")
    serve.add_argument("--max-specs", type=int, default=None,
                       metavar="N",
                       help="specs accepted per job (default 50000)")
    serve.add_argument("--token", default=None,
                       help="bearer token clients must present "
                            "(default $REPRO_SERVE_TOKEN; required "
                            "to bind beyond 127.0.0.1)")
    serve.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point deadline for every sweep job "
                            "(default $REPRO_POINT_TIMEOUT); a "
                            "wedged point is reaped and retried "
                            "instead of hanging its job forever")
    serve.add_argument("--resume", action="store_true",
                       help="replay the job journal on startup: "
                            "jobs left queued/running by a killed "
                            "server are requeued under their "
                            "original IDs")
    add_cache_flags(serve)
    add_quiet(serve)

    submit = sub.add_parser(
        "submit", help="dispatch a sweep to repro serve instance(s)")
    submit.add_argument("--server", required=True, metavar="URL[,URL]",
                        help="server URL; several (comma-separated) "
                             "with --shard-across")
    submit.add_argument("--kernels", default=None,
                        help="comma-separated kernels (default: all)")
    submit.add_argument("--configs", default=None,
                        help="comma-separated configs (default: "
                             "HOM64,HOM32,HET1,HET2)")
    submit.add_argument("--variants", default=None,
                        help="comma-separated flow variants "
                             "(default: all)")
    submit.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the server's)")
    submit.add_argument("--backend", default=None,
                        help="execution backend for the submitted "
                             "sweep (axes mode only)")
    submit.add_argument("--figure", default=None, metavar="NAME",
                        help="submit a figure's prewarm points "
                             "instead of sweep axes")
    submit.add_argument("--shard", default=None, metavar="I/N",
                        help="have the server compute only shard I "
                             "of N (payload merges with the others)")
    submit.add_argument("--shard-across", action="store_true",
                        help="split the sweep across all given "
                             "servers (one shard per URL) and merge "
                             "the results locally")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="per-request timeout in seconds for "
                             "submit/status calls")
    submit.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="max silence on the point stream; the "
                             "server's 5s keepalives reset it "
                             "(default 60)")
    submit.add_argument("--priority", type=int, default=None,
                        help="job priority, -100..100; higher runs "
                             "first (default 0)")
    submit.add_argument("--retries", type=int, default=None,
                        metavar="N",
                        help="attempts per shard with "
                             "--shard-across before the dispatch "
                             "fails (default 3)")
    submit.add_argument("--token", default=None,
                        help="bearer token for the server(s) "
                             "(default $REPRO_SERVE_TOKEN)")
    submit.add_argument("--json", action="store_true",
                        help="emit the result payload as JSON")
    submit.add_argument("--trace-out", default=None, metavar="FILE",
                        help="trace the submission; server-side "
                             "spans stitch into the local tree via "
                             "the propagated traceparent")
    add_quiet(submit)

    chaos_cmd = sub.add_parser(
        "chaos", help="run a sweep under injected faults and prove "
                      "it converges to the clean answer "
                      "(see repro.chaos)")
    chaos_cmd.add_argument("--kernels", default=None,
                           help="comma-separated kernels "
                                "(default: all)")
    chaos_cmd.add_argument("--configs", default=None,
                           help="comma-separated configs (default: "
                                "HOM64,HOM32,HET1,HET2)")
    chaos_cmd.add_argument("--variants", default=None,
                           help="comma-separated flow variants "
                                "(default: all)")
    chaos_cmd.add_argument("--seed", type=int, default=7)
    chaos_cmd.add_argument("--backend", default=None,
                           help="execution backend (default "
                                "analytic)")
    chaos_cmd.add_argument("--faults", default=None, metavar="PLAN",
                           help="fault plan, e.g. 'worker_crash:"
                                "p=0.1,attempts=1;cache_corrupt:"
                                "p=0.2' (default $REPRO_FAULT, else "
                                "a crash+corrupt plan)")
    chaos_cmd.add_argument("--workers", type=int, default=2,
                           help="worker processes (>= 2: process "
                                "faults need real worker children)")
    chaos_cmd.add_argument("--point-timeout", type=float,
                           default=30.0, metavar="SECONDS",
                           help="per-point deadline during the "
                                "faulted runs (default 30)")
    chaos_cmd.add_argument("--allow-quarantine", type=int, default=0,
                           metavar="N",
                           help="tolerate up to N quarantined points "
                                "in the verdict (default 0: every "
                                "fault must heal)")
    chaos_cmd.add_argument("--json", action="store_true",
                           help="emit the chaos report as JSON on "
                                "stdout")
    chaos_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="also write the JSON report to FILE "
                                "(the CI artifact)")
    add_quiet(chaos_cmd)
    return parser


#: Environment variable silencing per-point progress (any value but
#: ``0``/``false``/``no``/empty counts as on).
ENV_QUIET = "REPRO_QUIET"


def _stderr_progress(update):
    """Narrate a streaming sweep on stderr, one line per point."""
    print(update.describe(), file=sys.stderr, flush=True)


def _quiet_requested(args):
    """``--quiet`` or ``$REPRO_QUIET`` — either silences progress."""
    if getattr(args, "quiet", False):
        return True
    value = os.environ.get(ENV_QUIET, "")
    return value.strip().lower() not in ("", "0", "false", "no")


def _progress(args):
    """The progress callback honouring ``--quiet``/``$REPRO_QUIET``."""
    return None if _quiet_requested(args) else _stderr_progress


def _flame_scope(args):
    """Sample the driving thread for ``--flame-out``, if requested."""
    if not args.flame_out:
        return contextlib.nullcontext()
    from repro.obs import flame
    return flame.capture(args.flame_out)


def _output_status(status, error):
    """Fold an unwritable output file into the exit status.

    The output is reported as one ``error:`` line; the run's own
    non-zero status wins, and a run that otherwise succeeded exits 1.
    """
    if error is None:
        return status
    print(f"error: {error}", file=sys.stderr)
    return status or 1


def _record_ledger(args, command, summary):
    """Best-effort ledger append for a finished measured run."""
    from repro.perf import ledger
    ledger.record(command, summary,
                  cache_dir=getattr(args, "cache_dir", None))


def _check_shard_output(args):
    """--shard needs a durable output: the cache or a --json payload.

    A shard's contribution lives on only through the shared cache or
    a mergeable payload; with neither, hours of mapping would print
    a table and evaporate.
    """
    if args.no_cache and not args.json:
        raise ReproError(
            "--shard with --no-cache discards all results: "
            "add --json (mergeable payload) or drop --no-cache")


def _run_shard(args, cache, specs, shard, label=""):
    """Run one shard of ``specs``; emits a mergeable ``--json``
    payload or a partial-sweep table.  Shared by ``sweep --shard``,
    ``figure --shard`` and ``explore --shard`` so their payloads
    cannot drift apart.  ``--cache-balanced`` charges already-cached
    specs ~zero cost when carving the shard, so warm re-runs split
    the residual work evenly — coherent only while every cooperating
    producer sees the same shared cache."""
    from repro.eval.reporting import render_sweep
    from repro.runtime.pool import run_sweep
    from repro.runtime.shard import (
        shard_indices, sweep_fingerprint, sweep_json_payload)

    balance_cache = cache if getattr(args, "cache_balanced", False) \
        else None
    if getattr(args, "cache_balanced", False) and cache is None:
        raise ReproError(
            "--cache-balanced balances against the shared cache; "
            "drop --no-cache")
    positions = shard_indices(specs, *shard, cache=balance_cache)
    result = run_sweep([specs[i] for i in positions],
                       workers=args.workers, cache=cache,
                       progress=_progress(args),
                       point_timeout=getattr(args, "point_timeout",
                                             None))
    if args.json:
        print(json.dumps(sweep_json_payload(
            result, shard=shard, positions=positions,
            spec_total=len(specs),
            fingerprint=sweep_fingerprint(specs)), indent=2))
    else:
        print(f"{label}shard {shard[0]}/{shard[1]}: "
              f"{len(positions)} of {len(specs)} points")
        print(render_sweep(result))
    return 1 if result.crashed else 0


def _map(args):
    kernel = get_kernel(args.kernel)
    result = map_kernel(kernel.cdfg, get_config(args.config),
                        VARIANTS[args.flow]())
    print(result.summary())
    program = assemble(result, kernel.cdfg, enforce_fit=False)
    print(usage_chart(program))
    return 0


def _run(args):
    kernel = get_kernel(args.kernel)
    result = map_kernel(kernel.cdfg, get_config(args.config),
                        VARIANTS[args.flow]())
    program = assemble(result, kernel.cdfg,
                       enforce_fit=result.options.ecmap)
    inputs = kernel.make_inputs(np.random.default_rng(args.seed))
    memory = kernel.make_memory(inputs)
    run = CGRASimulator(program, memory).run()
    expected = kernel.reference(inputs)
    for region in kernel.output_regions:
        if run.region(kernel.cdfg, region) != expected[region]:
            print(f"FAIL: region {region} mismatch", file=sys.stderr)
            return 1
    cpu = CPUModel(kernel.cdfg).run(memory)
    print(f"{args.kernel} on {args.config} ({args.flow} flow): "
          f"verified OK")
    print(f"  CGRA: {run.cycles} cycles   CPU: {cpu.cycles} cycles   "
          f"speedup {cpu.cycles / run.cycles:.1f}x")
    return 0


def _cache_from(args):
    """ResultCache honouring --no-cache/--cache-dir (None = disabled)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.runtime.cache import ResultCache
    return ResultCache(getattr(args, "cache_dir", None))


def _energy(args):
    from repro.eval.experiments import (
        PointSpec, cpu_point, execute_spec, prefetch_points)
    cpu_cycles, cpu_energy = cpu_point(args.kernel)
    print(f"{args.kernel}: CPU {cpu_energy.total_uj:.4f} uJ "
          f"({cpu_cycles} cycles)")
    spec = PointSpec(args.kernel, args.config, args.flow, seed=args.seed)
    prefetch_points([spec], cache=_cache_from(args))
    point = execute_spec(spec)
    if not point.mapped:
        print(f"  {args.config}/{args.flow}: no mapping ({point.error})")
        return 1
    gain = cpu_energy.total_uj / point.energy_uj
    print(f"  {args.config}/{args.flow}: {point.energy_uj:.4f} uJ "
          f"({point.cycles} cycles, {gain:.1f}x vs CPU)")
    for part, pj in sorted(point.energy.parts.items()):
        print(f"    {part:15s} {pj / 1e6:8.4f} uJ "
              f"({point.energy.fraction(part):5.1%})")
    return 0


def _area(_args):
    from repro.eval.experiments import fig11_data
    from repro.eval.reporting import render_fig11
    print(render_fig11(fig11_data()))
    return 0


def _split_axis(value):
    """Comma-separated CLI axis -> tuple, or None (use the default)."""
    return tuple(value.split(",")) if value else None


def _sweep(args):
    from repro.eval.reporting import render_sweep
    from repro.runtime.sweep import validated_sweep_specs

    # Every axis — and the shard string below — is validated before
    # any destructive action: a typo must not cost the user their
    # whole accumulated cache.
    specs = validated_sweep_specs(kernels=_split_axis(args.kernels),
                                  configs=_split_axis(args.configs),
                                  variants=_split_axis(args.variants),
                                  seed=args.seed,
                                  backend=args.backend)
    shard = None
    if args.shard:
        from repro.runtime.shard import parse_shard
        shard = parse_shard(args.shard)
        _check_shard_output(args)
    cache = _cache_from(args)
    if args.clear_cache:
        # Wipe even under --no-cache ("clear it, then recompute
        # without it") via a throwaway handle on the same directory.
        from repro.runtime.cache import ResultCache
        target = cache if cache is not None \
            else ResultCache(getattr(args, "cache_dir", None))
        removed = target.clear()
        # Status narration, not a result: under --json stdout must
        # hold nothing but the payload.
        print(f"cleared {removed} cache entries from {target.directory}",
              file=sys.stderr if args.json else sys.stdout)
    if shard is not None:
        # Shard slices are partial by construction — they are not
        # recorded in the ledger, whose trends compare whole runs.
        return _run_shard(args, cache, specs, shard)
    from repro.runtime.pool import run_sweep
    with _flame_scope(args) as sampler:
        result = run_sweep(specs, workers=args.workers, cache=cache,
                           progress=_progress(args),
                           point_timeout=args.point_timeout)
    from repro.perf.ledger import sweep_summary
    _record_ledger(args, "sweep", sweep_summary(result))
    if args.json:
        from repro.runtime.shard import sweep_json_payload
        print(json.dumps(sweep_json_payload(result), indent=2))
    else:
        print(render_sweep(result))
        if cache is not None:
            print(f"cache: {cache.directory} ({cache.hits} hits, "
                  f"{cache.stores} new entries)")
    return _output_status(1 if result.crashed else 0,
                          getattr(sampler, "write_error", None))


def _diff(args):
    from repro.runtime.diff import (
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL, run_diff,
        validated_diff_backends)
    from repro.runtime.sweep import validated_sweep_specs

    backends = validated_diff_backends(
        _split_axis(args.backends))
    specs = validated_sweep_specs(kernels=_split_axis(args.kernels),
                                  configs=_split_axis(args.configs),
                                  variants=_split_axis(args.variants),
                                  seed=args.seed)
    abs_tol = args.abs_tol if args.abs_tol is not None \
        else DEFAULT_ABS_TOL
    rel_tol = args.rel_tol if args.rel_tol is not None \
        else DEFAULT_REL_TOL
    result = run_diff(specs, backends=backends, abs_tol=abs_tol,
                      rel_tol=rel_tol, workers=args.workers,
                      cache=_cache_from(args),
                      progress=_progress(args))
    from repro.perf.ledger import diff_summary
    _record_ledger(args, "diff", diff_summary(result))
    payload = result.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for record in result.mismatches:
            status = record.classify(abs_tol, rel_tol)
            print(f"  {status:8s} {record.describe()}: "
                  f"{record.backend_a}={record.cycles_a} "
                  f"{record.backend_b}={record.cycles_b} "
                  f"output_match={record.digest_match} "
                  f"errors=({record.error_a!r}, {record.error_b!r})")
        print(result.summary())
    # Exit 4 is the differential verdict, distinct from usage errors
    # (1) and unmappable (2) — CI keys off it.
    return 0 if result.ok else 4


def _chaos(args):
    from repro.chaos.harness import render_report, run_chaos
    from repro.runtime.sweep import validated_sweep_specs

    specs = validated_sweep_specs(kernels=_split_axis(args.kernels),
                                  configs=_split_axis(args.configs),
                                  variants=_split_axis(args.variants),
                                  seed=args.seed,
                                  backend=args.backend)
    report = run_chaos(specs, faults=args.faults,
                       workers=args.workers,
                       point_timeout=args.point_timeout,
                       allow_quarantine=args.allow_quarantine,
                       progress=_progress(args))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    # Exit 5 is the chaos verdict — the faulted sweep failed to
    # converge to the clean answer — distinct from usage errors (1),
    # unmappable (2), bench regressions (3) and diff mismatches (4).
    return 0 if report["ok"] else 5


def _merge(args):
    from repro.eval.reporting import render_sweep
    from repro.runtime.shard import merge_sweep_files, sweep_json_payload

    result = merge_sweep_files(args.files)
    if args.json:
        print(json.dumps(sweep_json_payload(result), indent=2))
    else:
        print(render_sweep(result))
    return 1 if result.crashed else 0


def _format_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024


def _cache(args):
    from repro.runtime.cache import ResultCache, parse_bytes

    cache = ResultCache(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            cap = (_format_bytes(stats["max_bytes"])
                   if stats["max_bytes"] is not None else "none")
            print(f"cache: {stats['directory']} "
                  f"(format {stats['format']})")
            print(f"  entries:     {stats['entries']}")
            print(f"  total size:  "
                  f"{_format_bytes(stats['total_bytes'])}")
            if stats["orphaned_entries"]:
                print(f"  orphaned:    {stats['orphaned_entries']} "
                      f"entries from older cache formats, "
                      f"{_format_bytes(stats['orphaned_bytes'])} "
                      f"(reclaim with prune/clear)")
            print(f"  byte cap:    {cap}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
        return 0
    try:
        cap = (parse_bytes(args.max_bytes)
               if args.max_bytes is not None else None)
        evicted = cache.prune(cap)
    except ValueError as error:
        raise ReproError(str(error)) from None
    print(f"evicted {evicted} entries; "
          f"{_format_bytes(cache.size_bytes())} in {cache.directory}")
    return 0


def _figure_shard(args, cache):
    """Distributed prewarm: compute one shard of a figure's points.

    Emits the partial sweep (table or ``--json`` payload) instead of
    the figure — the shards fill a shared cache and/or merge into the
    full point set; the figure itself renders from any machine that
    sees all of them.
    """
    from repro.eval.experiments import figure_point_specs
    from repro.runtime.shard import parse_shard

    specs = figure_point_specs(args.name)
    if not specs:
        raise ReproError(
            f"{args.name} has no prewarmable experiment points to "
            f"shard; only the latency figures (fig6-8), fig10 and "
            f"table2 have one")
    shard = parse_shard(args.shard)
    _check_shard_output(args)
    return _run_shard(args, cache, specs, shard,
                      label=f"{args.name} ")


def _figure(args):
    from repro.eval import experiments, reporting
    cache = _cache_from(args)
    workers = args.workers
    if args.shard:
        return _figure_shard(args, cache)
    if args.name == "fig5":
        data = experiments.fig5_data()
        render = reporting.render_fig5
    elif args.name in experiments.FIGURE_VARIANTS:
        variant = experiments.FIGURE_VARIANTS[args.name]
        data = experiments.latency_figure_data(
            variant, workers=workers, cache=cache,
            progress=_progress(args))

        def render(chart):
            return reporting.render_latency_figure(
                f"Fig {args.name[3:]} — {variant} flow", chart,
                experiments.LATENCY_CONFIGS)
    elif args.name == "fig9":
        # Compile-time measurements stay serial: sharing cores would
        # distort the very quantity the figure reports.
        data = experiments.fig9_data()
        render = reporting.render_fig9
    elif args.name == "fig10":
        data = experiments.fig10_data(workers=workers, cache=cache,
                                      progress=_progress(args))
        render = reporting.render_fig10
    elif args.name == "fig11":
        data = experiments.fig11_data()
        render = reporting.render_fig11
    else:
        data = experiments.table2_data(workers=workers, cache=cache,
                                       progress=_progress(args))
        render = reporting.render_table2
    print(json.dumps(data, indent=2) if args.json else render(data))
    return 0


def _explore(args):
    from repro.dse.runner import (
        exploration_grid_specs,
        run_exploration,
        validated_exploration_config,
    )
    from repro.eval.reporting import render_exploration

    depths = None
    if args.depths:
        try:
            depths = [int(d) for d in args.depths.split(",")]
        except ValueError:
            raise ReproError(
                f"--depths expects comma-separated integers "
                f"(e.g. 8,16,32), got {args.depths!r}") from None
    config = validated_exploration_config(
        space=_split_axis(args.space),
        depths=depths,
        samples=args.samples,
        kernels=_split_axis(args.kernels),
        variant=args.variant,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        objectives=_split_axis(args.objectives),
        rows=args.rows, cols=args.cols,
        backend=args.backend)
    cache = _cache_from(args)
    if args.shard:
        from repro.runtime.shard import parse_shard
        shard = parse_shard(args.shard)
        _check_shard_output(args)
        # The prewarm unit is the exhaustive grid: shards fill the
        # shared cache; any strategy run afterwards resolves its
        # requests from hits.
        return _run_shard(args, cache, exploration_grid_specs(config),
                          shard, label="explore ")
    result = run_exploration(config, workers=args.workers,
                             cache=cache, progress=_progress(args))
    payload = result.payload()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_exploration(payload))
    return 0


def _bench(args):
    import time as _time

    from repro.perf import (
        bench_payload, compare_benchmarks, default_cases,
        load_bench_file, parse_case, render_bench, render_comparison,
        run_bench)

    if args.max_regress is not None and not (args.compare
                                             or args.compare_ledger):
        # Silently ignoring the threshold would let a user believe
        # the regression gate ran when nothing was compared.
        raise ReproError("--max-regress only applies with --compare "
                         "or --compare-ledger")
    if args.window is not None and not args.compare_ledger:
        raise ReproError("--window only applies with --compare-ledger")
    max_regress = args.max_regress if args.max_regress is not None \
        else 25.0
    if args.cases:
        cases = [parse_case(text.strip())
                 for text in args.cases.split(",") if text.strip()]
        if not cases:
            raise ReproError("--cases named no cases")
    else:
        cases = default_cases(kernels=_split_axis(args.kernels),
                              configs=_split_axis(args.configs),
                              variants=_split_axis(args.variants))
    progress = None if _quiet_requested(args) else (
        lambda line: print(line, file=sys.stderr, flush=True))
    with _flame_scope(args) as sampler:
        results = run_bench(cases, warmup=args.warmup,
                            repeat=args.repeat,
                            reducer=args.reducer, progress=progress)
    payload = bench_payload(results, args.warmup, args.repeat,
                            args.reducer,
                            created_unix=int(_time.time()))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_bench(payload))
    status = 0
    # The comparison is narration under --json (stdout holds the
    # document); regressions still gate the exit code.
    out = sys.stderr if args.json else sys.stdout
    if args.compare:
        baseline = load_bench_file(args.compare)
        rows, regressions = compare_benchmarks(payload, baseline,
                                               max_regress)
        print(render_comparison(rows, regressions, max_regress),
              file=out)
        if regressions:
            status = 3
    if args.compare_ledger:
        import platform as _platform

        from repro.perf import ledger
        # Gate against history *before* recording this run, so a run
        # can never be part of its own baseline; same-host only,
        # since wall-clock across machines compares nothing.
        entries, _skipped = ledger.read_ledger(
            ledger.ledger_path(getattr(args, "cache_dir", None)),
            host=_platform.node())
        rows, regressions, used = ledger.compare_to_ledger(
            payload, entries,
            window=(ledger.DEFAULT_WINDOW if args.window is None
                    else args.window),
            max_regress_pct=max_regress)
        print(f"ledger gate: rolling median of the last {used} "
              f"same-host bench run(s)", file=out)
        print(render_comparison(rows, regressions, max_regress),
              file=out)
        if regressions:
            status = 3
    from repro.perf.ledger import bench_summary
    _record_ledger(args, "bench", bench_summary(payload))
    return _output_status(status, getattr(sampler, "write_error", None))


def _analyze(args):
    from repro.obs import analyze
    payload = analyze.analyze_spans(analyze.load_trace_file(args.file))
    print(json.dumps(payload, indent=2) if args.json
          else analyze.render_analysis(payload))
    return 0


def _history(args):
    from repro.perf import ledger

    path = ledger.ledger_path(getattr(args, "cache_dir", None))
    entries, skipped = ledger.read_ledger(
        path, command=args.filter_command, limit=args.limit)
    if args.json:
        print(json.dumps({
            "kind": "ledger-history",
            "schema": ledger.LEDGER_SCHEMA,
            "path": str(path),
            "entries": entries,
            "skipped": skipped,
        }, indent=2))
    else:
        print(ledger.render_history(entries, skipped))
    return 0


def _report(args):
    from repro.obs import analyze, metrics, report
    from repro.perf import ledger

    entries, _skipped = ledger.read_ledger(
        ledger.ledger_path(getattr(args, "cache_dir", None)),
        limit=args.limit)
    analysis = None
    if args.trace:
        analysis = analyze.analyze_spans(
            analyze.load_trace_file(args.trace))
    cache = _cache_from(args)
    cache_stats = cache.stats() if cache is not None else None
    html_text = report.render_report(
        ledger_entries=entries, analysis=analysis,
        metrics_text=metrics.REGISTRY.render(),
        cache_stats=cache_stats)
    if args.out == "-":
        sys.stdout.write(html_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(html_text)
        print(f"report -> {args.out}", file=sys.stderr, flush=True)
    return 0


def _metrics(args):
    if args.server:
        import urllib.error
        import urllib.request
        url = args.server.rstrip("/") + "/metrics"
        # Every way a scrape fails — non-2xx, refused connection,
        # unresolvable host, schemeless URL — is one diagnostic line
        # and exit 1, never a traceback.
        try:
            with urllib.request.urlopen(url, timeout=30.0) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise ReproError(
                f"scrape of {url} failed: HTTP {error.code} "
                f"{error.reason}") from None
        except urllib.error.URLError as error:
            raise ReproError(
                f"cannot scrape {url}: {error.reason}") from None
        except OSError as error:
            raise ReproError(
                f"cannot scrape {url}: {error}") from None
        except ValueError as error:
            raise ReproError(
                f"bad --server URL {args.server!r}: {error}") \
                from None
        return 0
    from repro.obs import metrics
    # Prime the cache gauges so a fresh process reports the
    # persistent cache's real state, not zeros.
    cache = _cache_from(args)
    if cache is not None:
        cache.stats()
    sys.stdout.write(metrics.REGISTRY.render())
    return 0


def _profile(args):
    from repro.perf import BenchCase, flame_case, profile_case

    case = BenchCase(args.kernel, args.config, args.variant)
    if args.flame or args.flame_out:
        from repro.obs import flame
        rate = args.hz if args.hz is not None else flame.DEFAULT_HZ
        profiler = flame_case(case, rate, repeat=args.repeat,
                              path=args.flame_out)
        print(f"flame: {case.name} ({profiler.samples} wakeup(s) @ "
              f"{rate:g} Hz x {max(1, args.repeat)} mapping(s))")
        print(flame.render_flame(profiler.counts, top=args.top))
        return _output_status(0, profiler.write_error)
    if args.hz is not None:
        raise ReproError("--hz only applies with --flame")
    text, _ = profile_case(case, top=args.top, sort=args.sort)
    print(text)
    return 0


def _kernels(_args):
    for name in PAPER_KERNEL_ORDER:
        kernel = get_kernel(name)
        print(f"{name:14s} {kernel.cdfg.n_ops:4d} static ops, "
              f"{len(kernel.cdfg.blocks):2d} blocks — "
              f"{kernel.description}")
    return 0


def _serve(args):
    from repro import jsonl
    from repro.serve.journal import ENV_JOURNAL, JobJournal, journal_path
    from repro.serve.server import make_server

    cache = _cache_from(args)
    token = args.token or os.environ.get("REPRO_SERVE_TOKEN") or None
    # The journal lives next to ledger.jsonl in the cache directory
    # (the cache may itself be disabled; the journal still needs a
    # home, so it falls back to the default directory).
    journal = None
    if jsonl.enabled(ENV_JOURNAL):
        journal = JobJournal(journal_path(
            cache.directory if cache is not None
            else getattr(args, "cache_dir", None)))
    if args.resume and journal is None:
        raise ReproError(
            f"--resume needs the job journal; drop {ENV_JOURNAL}=0")
    try:
        server = make_server(host=args.host, port=args.port,
                             workers=args.workers, cache=cache,
                             quiet=_quiet_requested(args),
                             max_finished_jobs=args.max_finished_jobs,
                             finished_ttl_seconds=args.job_ttl,
                             max_concurrent_jobs=args.jobs,
                             max_queued_jobs=args.max_queued,
                             max_specs_per_job=args.max_specs,
                             token=token, journal=journal,
                             point_timeout=args.point_timeout,
                             resume=args.resume)
    except (OSError, OverflowError) as error:
        # Port in use / privileged / out of range / bad address: a
        # one-line diagnosis, not a traceback.  (bind() reports an
        # out-of-range port as OverflowError, not OSError.)
        raise ReproError(f"cannot bind {args.host}:{args.port}: "
                         f"{error}") from None
    host, port = server.server_address[:2]
    where = cache.directory if cache is not None else "disabled"
    from repro.obs import get_logger
    log = get_logger("repro.serve")
    log.info("serving", url=f"http://{host}:{port}",
             workers=args.workers, cache=where,
             auth="token" if token else "off",
             journal=str(journal.path) if journal else "off")
    if server.manager.replay_stats is not None:
        log.info("journal.replayed", **server.manager.replay_stats)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("shutting down")
    finally:
        server.server_close()
    return 0


def _submit_request(args):
    """Build the POST body from the submit axes/figure flags."""
    request = {}
    if args.figure:
        if args.kernels or args.configs or args.variants:
            raise ReproError(
                "--figure and the kernels/configs/variants axes are "
                "exclusive")
        request["figure"] = args.figure
    else:
        for key, value in (("kernels", args.kernels),
                           ("configs", args.configs),
                           ("variants", args.variants)):
            if value:
                request[key] = value.split(",")
    if args.backend is not None:
        if args.figure:
            raise ReproError(
                "--backend applies to axes submissions, not --figure "
                "(figures pin their own specs)")
        request["backend"] = args.backend
    if args.seed is not None:
        request["seed"] = args.seed
    if args.priority is not None:
        request["priority"] = args.priority
    return request


def _submit(args):
    from repro.eval.reporting import render_sweep
    from repro.runtime.shard import (
        sweep_json_payload, sweep_result_from_payload)
    from repro.serve.client import (
        SweepClient, describe_record, run_distributed)

    servers = [url.strip() for url in args.server.split(",")
               if url.strip()]
    if not servers:
        raise ReproError("no server URLs given")
    request = _submit_request(args)
    quiet = _quiet_requested(args)
    token = args.token or os.environ.get("REPRO_SERVE_TOKEN") or None
    client_kwargs = {"timeout": args.timeout, "token": token}
    if args.idle_timeout is not None:
        client_kwargs["idle_timeout"] = args.idle_timeout

    if args.shard_across:
        if args.shard:
            raise ReproError(
                "--shard picks one slice by hand; --shard-across "
                "shards over the servers — use one or the other")

        def narrate(record, done, total, url):
            print(describe_record(record, done, total, origin=url),
                  file=sys.stderr, flush=True)

        dispatch_kwargs = dict(client_kwargs)
        if args.retries is not None:
            dispatch_kwargs["max_attempts"] = args.retries
        result, _ = run_distributed(
            servers, request,
            progress=None if quiet else narrate, **dispatch_kwargs)
        if args.json:
            print(json.dumps(sweep_json_payload(result), indent=2))
        else:
            print(render_sweep(result))
        return 1 if result.crashed else 0

    if len(servers) > 1:
        raise ReproError(
            "several --server URLs only make sense with "
            "--shard-across; pick one URL otherwise")
    if args.shard:
        from repro.runtime.shard import parse_shard
        request["shard"] = list(parse_shard(args.shard))

    def narrate_one(record, done, total):
        print(describe_record(record, done, total),
              file=sys.stderr, flush=True)

    client = SweepClient(servers[0], **client_kwargs)
    payload = client.run(request,
                         progress=None if quiet else narrate_one)
    result = sweep_result_from_payload(payload)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_sweep(result))
    return 1 if result.crashed else 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {"map": _map, "run": _run, "energy": _energy,
                "area": _area, "kernels": _kernels, "sweep": _sweep,
                "diff": _diff, "merge": _merge, "cache": _cache,
                "figure": _figure, "explore": _explore,
                "serve": _serve, "submit": _submit, "bench": _bench,
                "profile": _profile, "analyze": _analyze,
                "metrics": _metrics, "history": _history,
                "report": _report, "chaos": _chaos}
    # ``--trace-out`` (sweep/diff/submit/explore) records the whole
    # command and dumps whatever landed even on a failing exit — a
    # trace of the run that misbehaved is the one worth keeping.
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs import trace
        trace.enable_tracing()
    trace_error = None
    try:
        status = handlers[args.command](args)
    except UnmappableError as error:
        print(f"no mapping: {error}", file=sys.stderr)
        status = 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        status = 1
    finally:
        if trace_out:
            spans = trace.drain_spans()
            try:
                trace.write_chrome_trace(trace_out, spans)
            except OSError as error:
                trace_error = f"cannot write trace to {trace_out}: " \
                              f"{error}"
            else:
                print(f"{len(spans)} spans -> {trace_out}",
                      file=sys.stderr, flush=True)
    return _output_status(status, trace_error)


if __name__ == "__main__":
    sys.exit(main())
