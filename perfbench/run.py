"""The repository benchmark: cold sweeps, an edge-of-mappability sweep
and warm serve jobs, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_paper --seed 1 \\
        --seconds 42 --trace 0

Workloads (see ``workloads.py`` for why each exists):

- ``cold_paper`` — Table I points computed cold (``run_sweep`` path);
- ``cold_tight`` — custom CM depths at the edge of mappability;
- ``serve_warm`` — closed-loop ``repro serve`` jobs over a warm cache.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and twice traced, under
two ``PYTHONHASHSEED`` values, and reports per-layer metrics from
wrappers installed by ``layers.py``; the traced runs' counts and the
quality metrics must agree exactly, or the run fails.

Every run happens in fresh processes with a fresh temporary
``REPRO_CACHE_DIR`` under ``.perfbench_tmp/`` in the checkout, with
``REPRO_LEDGER=0``; other ``REPRO_*`` variables are not passed on.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before
it are a human-readable report, including one row per point.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import (  # noqa: E402
    deterministic_counts,
    layer_metrics,
    merge_snapshots,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    cold_passes,
    cold_points,
    in_quality_set,
    must_map,
    serve_request,
    shuffled,
)

#: Environment variables that would make a run faulty or traced.
REFUSED_ENV = ("REPRO_FAULT", "REPRO_TRACE", "REPRO_POINT_TIMEOUT")

#: Serve rounds per run, each with its own cache fill and server; two
#: give two ``setup_s`` samples and leave most of a run to the loop.
SERVE_ROUNDS = 2
#: Jobs per serve round in a traced run (a fixed count keeps the
#: per-layer counts independent of the host's speed).
TRACE_JOBS = 120
SMOKE_TRACE_JOBS = 12
#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)
#: Whole-run budget, under the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Energy totals are float sums; the goldens allow for another libm.
GOLDEN_ENERGY_REL = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def hash_seeds(seed):
    """Two different PYTHONHASHSEED values derived from the seed."""
    first = (seed * 2654435761 + 12345) % 4294967296
    return first, (first + 2147483647) % 4294967296


class Runner:
    """Starts fresh worker processes inside one scratch directory."""

    def __init__(self, root, scratch, deadline):
        self.root = root
        self.scratch = scratch
        self.deadline = deadline
        self.started = 0
        base = {key: value for key, value in os.environ.items()
                if not key.startswith("REPRO_")}
        base.update(PYTHONPATH=str(root / "src"), REPRO_LEDGER="0",
                    TMPDIR=str(scratch))
        self.base_env = base

    def run(self, mode, config, hash_seed):
        self.started += 1
        cache_dir = self.scratch / f"cache-{self.started}"
        env = dict(self.base_env, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONHASHSEED=str(hash_seed))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        # Its own session, so a timeout also takes down the server
        # process a serve worker starts.
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=self.root,
            start_new_session=True)
        try:
            stdout, stderr = worker.communicate(json.dumps(config),
                                                timeout=remaining)
        except BaseException as error:
            # A timeout, or SIGTERM/Ctrl-C on us: nothing may outlive
            # the run.
            try:
                os.killpg(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group has already exited
            worker.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} worker overran the run "
                                 f"budget") from None
            raise
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if worker.returncode != 0:
            raise BenchError(f"{mode} worker exited {worker.returncode}:"
                             f"\n{stderr[-4000:]}")
        return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples):
    """``(percentile, value)``: the highest percentile with at least
    ten samples beyond it, else the maximum (percentile 100)."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * count)
        if rank >= 1 and count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def quality(workload, rows):
    """The four deterministic quality metrics over one pass."""
    chosen = [row for row in rows
              if row["mapped"] and in_quality_set(workload, row)]
    return {"points_mapped": sum(1 for row in rows if row["mapped"]),
            "context_words": sum(row["words"] for row in chosen),
            "sim_cycles": sum(row["cycles"] for row in chosen),
            # fsum: the total must not depend on the order points ran in.
            "energy_nj": math.fsum(row["energy_uj"] for row in chosen)
            * 1000.0}


def operations(run):
    """Points computed (cold passes, serve cache fills) plus jobs sent."""
    return len(run["rows"]) + len(run.get("latencies", ()))


def load_goldens(root):
    path = root / "tests" / "golden" / "points.json"
    entries = json.loads(path.read_text())["points"]
    return {(entry["kernel"], entry["config"], entry["variant"]): entry
            for entry in entries}


def row_failures(workload, rows, goldens):
    """One message per failed point: crash, wrong output, a golden
    mismatch, or a no-map where the workload needs a mapping."""
    failures = []
    for row in rows:
        problems = []
        if row["crashed"]:
            problems.append(f"crashed ({row['outcome']})")
        elif row["mapped"] and not row["verified"]:
            problems.append("outputs differ from the reference")
        elif not row["mapped"] and must_map(workload, row):
            problems.append(f"did not map ({row['outcome']})")
        golden = None if row["custom"] else goldens.get(
            (row["kernel"], row["config"], row["variant"]))
        if golden is not None and row["mapped"]:
            for field, key in (("cycles", "cycles"),
                               ("words", "total_words"),
                               ("movs", "total_movs"),
                               ("pnops", "total_pnops")):
                if row[field] != golden[key]:
                    problems.append(f"{field} {row[field]} != golden "
                                    f"{golden[key]}")
            if not math.isclose(row["energy_uj"], golden["energy_uj"],
                                rel_tol=GOLDEN_ENERGY_REL):
                problems.append("energy differs from golden")
        if problems:
            failures.append(f"{row['point']}: " + "; ".join(problems))
    return failures


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def cold_pass(runner, points, order_seed, traced, hash_seed):
    """One cold pass over ``points`` in one fresh process."""
    return runner.run("cold", {"points": shuffled(points, order_seed),
                               "trace": traced}, hash_seed)


def serve_round(runner, seed, traced, hash_seed, smoke, seconds=None,
                jobs=None):
    config = {"request": serve_request(seed, smoke), "trace": traced,
              "seconds": seconds, "jobs": jobs}
    result = runner.run("serve", config, hash_seed)
    if traced:
        result["layers"] = merge_snapshots(result["layers"],
                                           result["client_layers"])
    return result


def fastest_rows(passes):
    """Each point's row, its ``wall_s`` the point's fastest time.

    The host's slow phases come and go within milliseconds to minutes
    and only ever add time.  The worker cuts every point into the same
    segments in every pass (``SegmentClock``), so the sum of each
    segment's fastest pass is the point's time with the slow phases
    left out, and it sums many independent minima, which keeps it
    steady from run to run.  A point whose passes were cut differently
    (no clock, or a mapper that is not deterministic) keeps its fastest
    whole pass.
    """
    by_point = {}
    for one in passes:
        for row in one["rows"]:
            by_point.setdefault(row["point"], []).append(row)
    best = []
    for rows in by_point.values():
        cuts = [row["segments"] for row in rows]
        if all(cuts) and len({len(segments) for segments in cuts}) == 1:
            wall_s = math.fsum(min(column) for column in zip(*cuts))
        else:
            wall_s = min(row["wall_s"] for row in rows)
        best.append(dict(rows[0], wall_s=wall_s))
    return best


def run_workload(args, runner, goldens):
    """``(report, metrics, attempted, failures)`` for one run."""
    seed, workload = args.seed, args.workload
    first_hash, second_hash = hash_seeds(seed)
    cold = workload != "serve_warm"
    points = cold_points(workload, seed, args.smoke) if cold else None

    if args.trace:
        return traced_run(args, runner, goldens, points,
                          first_hash, second_hash)

    if cold:
        count = cold_passes(args.seconds)
        passes = [cold_pass(runner, points, f"{seed}:{index}", False,
                            first_hash)
                  for index in range(count)]
        failures = [problem for one in passes
                    for problem in row_failures(workload, one["rows"],
                                                goldens)]
        qualities = [quality(workload, one["rows"]) for one in passes]
        if any(q != qualities[0] for q in qualities):
            failures.append("quality metrics differ between passes")
        best = fastest_rows(passes)
        # A cold job is one pass: one sweep of the workload's points.
        sweeps = [one["wall_s"] for one in passes]
        percentile, tail_s = tail(sweeps)
        measured = {
            "setup_s": statistics.median(one["setup_s"]
                                         for one in passes),
            "points_per_s": len(best) / math.fsum(row["wall_s"]
                                                  for row in best),
            "jobs_per_s": len(sweeps) / math.fsum(sweeps),
            "job_p50_ms": statistics.median(sweeps) * 1000.0,
            "job_tail_ms": tail_s * 1000.0,
            "peak_rss_mb": max(one["rss_mb"] for one in passes),
        }
        measured.update(qualities[0])
        report = point_table(best)
        report.append(f"{count} cold passes; wall_s sums each segment's "
                      f"fastest pass; a job is one pass; job_tail_ms "
                      f"is p{percentile:g} of {len(sweeps)} samples")
        return (report, with_units(measured),
                sum(operations(one) for one in passes), failures)

    rounds = [serve_round(runner, seed, False, first_hash, args.smoke,
                          seconds=args.seconds / SERVE_ROUNDS)
              for _ in range(SERVE_ROUNDS)]
    latencies = [value for one in rounds for value in one["latencies"]]
    failures = [problem for one in rounds
                for problem in one["failures"] + one["problems"]
                + row_failures(workload, one["rows"], goldens)]
    jobs_per_s = len(latencies) / sum(one["wall_s"] for one in rounds)
    rows = rounds[0]["rows"]
    percentile, tail_s = tail(latencies)
    measured = {
        "setup_s": statistics.median(one["setup_s"] for one in rounds),
        "points_per_s": jobs_per_s * len(rows),
        "jobs_per_s": jobs_per_s,
        "job_p50_ms": statistics.median(latencies) * 1000.0,
        "job_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": max(one["rss_mb"] for one in rounds),
    }
    qualities = [quality(workload, one["rows"]) for one in rounds]
    if any(q != qualities[0] for q in qualities):
        failures.append("quality metrics differ between rounds")
    measured.update(qualities[0])
    report = point_table(rows)
    report.append(f"{len(latencies)} jobs of {len(rows)} points in "
                  f"{SERVE_ROUNDS} rounds; job_tail_ms is "
                  f"p{percentile:g} of {len(latencies)} samples")
    return (report, with_units(measured),
            sum(operations(one) for one in rounds), failures)


def traced_run(args, runner, goldens, points, first_hash, second_hash):
    """Untraced once, traced twice under different hash seeds."""
    workload, seed = args.workload, args.seed
    if points is not None:
        def once(traced, hash_seed):
            return cold_pass(runner, points, seed, traced, hash_seed)
        jobs = 0
    else:
        jobs = SMOKE_TRACE_JOBS if args.smoke else TRACE_JOBS

        def once(traced, hash_seed):
            return serve_round(runner, seed, traced, hash_seed,
                               args.smoke, jobs=jobs)

    runs = [once(False, first_hash), once(True, first_hash),
            once(True, second_hash)]
    failures = []
    for one in runs:
        failures.extend(one.get("failures", []) + one.get("problems", []))
        failures.extend(row_failures(workload, one["rows"], goldens))
    qualities = [quality(workload, one["rows"]) for one in runs]
    if any(q != qualities[0] for q in qualities):
        failures.append("quality metrics differ across hash seeds")
    first, second = (deterministic_counts(runs[1]["layers"]),
                     deterministic_counts(runs[2]["layers"]))
    if first != second:
        changed = sorted(name for name in set(first) | set(second)
                         if first.get(name) != second.get(name))
        failures.append("per-layer counts differ across hash seeds: "
                        + ", ".join(changed))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit)
               in layer_metrics(runs[1]["layers"], jobs).items()}
    untraced = runs[0]["wall_s"]
    traced = statistics.mean([runs[1]["wall_s"], runs[2]["wall_s"]])
    metrics["obs.tracing_overhead"] = {
        "value": (traced - untraced) / untraced * 100.0, "unit": "%"}
    report = [f"untraced wall {untraced:.3f} s, traced wall "
              f"{traced:.3f} s (mean of two hash seeds)"]
    return (report, metrics, sum(operations(one) for one in runs),
            failures)


UNITS = {"setup_s": "s", "points_per_s": "1/s", "jobs_per_s": "1/s",
         "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mb": "MB",
         "points_mapped": "count", "context_words": "words",
         "sim_cycles": "cycles", "energy_nj": "nJ"}


def with_units(measured):
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in measured.items()}


def point_table(rows):
    """One line per point: outcome, map and wall seconds, quality."""
    columns = (("map_s", 7, ".3f"), ("wall_s", 7, ".3f"),
               ("cycles", 7, "d"), ("words", 6, "d"),
               ("energy_uj", 10, ".6f"))
    lines = [f"{'point':34s} {'outcome':18s} "
             + " ".join(f"{name:>{width}s}"
                        for name, width, _ in columns)]
    for row in sorted(rows, key=lambda row: row["point"]):
        cells = [format(row[name], f"{width}{fmt}")
                 if row[name] is not None else f"{'-':>{width}s}"
                 for name, width, fmt in columns]
        lines.append(f"{row['point']:34s} {row['outcome'][:18]:18s} "
                     + " ".join(cells))
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration of the workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, scratch, time.monotonic() + RUN_BUDGET_S)
    try:
        report, metrics, attempted, failures = run_workload(
            args, runner, load_goldens(root))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in report:
        print(line)
    for problem in failures:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
