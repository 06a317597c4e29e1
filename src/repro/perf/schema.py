"""The benchmark JSON document (``BENCH_*.json``) and its comparisons.

One schema serves every producer of compile-time measurements — the
``repro bench`` CLI, the CI ``perf-smoke`` job and the Fig 9 benchmark
— so the repo's performance trajectory is a single series of
comparable documents:

- ``BENCH_N.json`` at the repo root records the suite timing as of
  PR N (committed, the baseline future PRs regress against);
- ``repro bench --json`` emits the same document for the current
  checkout;
- ``repro bench --compare BENCH_N.json --max-regress PCT`` exits
  non-zero when any shared case got more than PCT percent slower, or
  when its deterministic mapping counts differ from the baseline's
  (a "speedup" that changes a mapping is not a speedup).

Wall-clock times are host-dependent: a comparison is only meaningful
against a baseline from comparable hardware (the ``host`` block is
recorded so a surprising regression can be triaged as "different
machine" at a glance).
"""

from __future__ import annotations

import datetime
import json
import platform
import time

from repro import __version__
from repro.errors import ReproError

#: Version of the benchmark JSON document.  Schema 2 added
#: ``recorded_at`` (an ISO-8601 UTC timestamp) and the host's
#: ``hostname`` — provenance fields only, so schema-1 baselines
#: remain readable; the comparison logic never touches either.
BENCH_JSON_SCHEMA = 2

#: Oldest schema :func:`parse_bench_payload` still reads.
BENCH_JSON_SCHEMA_MIN = 1

#: Per-case ``counts`` a comparison requires to equal the baseline's.
#: They do not depend on the host, so any difference is a changed
#: mapping, never noise.
GATED_COUNTS = ("mapped", "blocks", "attempts", "ops", "movs", "pnops",
                "words")


def host_info():
    """The machine identity recorded with every benchmark document."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "hostname": platform.node(),
    }


def bench_payload(results, warmup, repeat, reducer, created_unix=None):
    """Assemble the benchmark document from per-case results.

    ``results`` is a list of dicts as produced by
    :func:`repro.perf.harness.run_bench` (case identity, reduced
    seconds, raw samples, mapping call counts).
    """
    recorded = created_unix if created_unix is not None else time.time()
    return {
        "kind": "bench",
        "schema": BENCH_JSON_SCHEMA,
        "created_unix": created_unix,
        "recorded_at": datetime.datetime.fromtimestamp(
            recorded, datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "host": host_info(),
        "warmup": warmup,
        "repeat": repeat,
        "reducer": reducer,
        "cases": list(results),
        "total_seconds": round(sum(r["seconds"] for r in results), 6),
    }


def parse_bench_payload(data):
    """Validate a benchmark document; raises ReproError on junk."""
    if not isinstance(data, dict) or data.get("kind") != "bench":
        raise ReproError("not a benchmark document (kind != 'bench')")
    schema = data.get("schema")
    if not isinstance(schema, int) \
            or not BENCH_JSON_SCHEMA_MIN <= schema <= BENCH_JSON_SCHEMA:
        raise ReproError(
            f"benchmark schema {schema!r} unsupported (this build "
            f"reads {BENCH_JSON_SCHEMA_MIN}..{BENCH_JSON_SCHEMA})")
    cases = data.get("cases")
    if not isinstance(cases, list):
        raise ReproError("benchmark document has no cases list")
    for case in cases:
        if "case" not in case or "seconds" not in case:
            raise ReproError(f"malformed benchmark case: {case!r}")
    return data


def load_bench_file(path):
    """Read and validate a ``BENCH_*.json`` file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as error:
        raise ReproError(f"cannot read baseline {path}: {error}") \
            from None
    except json.JSONDecodeError as error:
        raise ReproError(f"baseline {path} is not JSON: {error}") \
            from None
    return parse_bench_payload(data)


def compare_benchmarks(current, baseline, max_regress_pct):
    """Per-case slowdowns and count changes of ``current`` against
    ``baseline``.

    Returns ``(rows, regressions)``: one row per case present in both
    documents (``case``, ``baseline_seconds``, ``seconds``,
    ``delta_pct``, ``count_changes``), and the subset whose slowdown
    exceeds ``max_regress_pct`` or whose :data:`GATED_COUNTS` differ.
    ``count_changes`` maps each differing count to ``[baseline,
    current]``; a count the baseline does not record (the ledger's
    rolling baseline records none) is not compared.  Cases unique to
    either side are compared with nothing and skipped — a PR may
    legitimately add or retire cases.
    """
    base_by_name = {c["case"]: c for c in baseline["cases"]}
    rows = []
    regressions = []
    for case in current["cases"]:
        base = base_by_name.get(case["case"])
        if base is None or not base["seconds"]:
            continue
        delta_pct = ((case["seconds"] - base["seconds"])
                     / base["seconds"] * 100.0)
        base_counts = base.get("counts") or {}
        counts = case.get("counts") or {}
        row = {
            "case": case["case"],
            "baseline_seconds": base["seconds"],
            "seconds": case["seconds"],
            "delta_pct": round(delta_pct, 2),
            "count_changes": {
                name: [base_counts[name], counts.get(name)]
                for name in GATED_COUNTS
                if name in base_counts
                and counts.get(name) != base_counts[name]},
        }
        rows.append(row)
        if delta_pct > max_regress_pct or row["count_changes"]:
            regressions.append(row)
    return rows, regressions


def render_comparison(rows, regressions, max_regress_pct):
    """Human-readable comparison table."""
    lines = [f"{'case':34s} {'base':>9s} {'now':>9s} {'delta':>8s}"]
    for row in rows:
        flag = "  << REGRESSION" if row in regressions else ""
        changes = ", ".join(
            f"{name} {base}->{now}"
            for name, (base, now) in row["count_changes"].items())
        if changes:
            flag += f" (counts changed: {changes})"
        lines.append(
            f"{row['case']:34s} {row['baseline_seconds']:9.3f} "
            f"{row['seconds']:9.3f} {row['delta_pct']:+7.1f}%{flag}")
    verdict = (f"{len(regressions)} case(s) regressed more than "
               f"{max_regress_pct:g}% or changed their counts"
               if regressions
               else f"no case regressed more than {max_regress_pct:g}% "
                    f"or changed its counts")
    lines.append(verdict)
    return "\n".join(lines)
