"""The watchtower layer end to end: a traced sweep analyses to a
bounded critical path, two bench runs land in the run ledger, an
injected implausibly-fast baseline trips the ledger gate (exit 3),
and ``repro report`` renders everything into the standalone HTML
dashboard.
"""

from repro.perf.ledger import append_entry, ledger_path, make_entry

BENCH = ["bench", "--cases", "dc_filter@HOM32/full,fir@HOM32/full",
         "--warmup", 1, "--repeat", 3, "--quiet"]


def test_trace_ledger_gate_and_dashboard(repro):
    repro.run("sweep", "--kernels", "dc_filter,fir", "--configs", "HOM64",
              "--variants", "basic,full", "--quiet",
              "--trace-out", "sweep-trace.json")
    doc = repro.json("analyze", "sweep-trace.json", "--json",
                     out="analysis.json")
    assert doc["kind"] == "trace-analysis", doc["kind"]
    root = doc["root"]
    assert root["name"] == "sweep", root
    assert 0 < doc["critical_path_us"] <= root["wall_us"], doc
    path = [row["span_id"] for row in doc["critical_path"]]
    assert path, "empty critical path"
    assert doc["spans"] >= len(path), doc["spans"]
    assert doc["orphans"] == 0, doc["orphans"]
    assert doc["stages"], "no per-stage self-time rows"

    repro.run(*BENCH)
    repro.run(*BENCH)
    entries = repro.json("history", "--json", out="history.json")["entries"]
    assert len([e for e in entries if e["command"] == "bench"]) >= 2
    assert [e for e in entries if e["command"] == "sweep"], \
        "the traced sweep never reached the ledger"
    assert all(e["schema"] == 1 for e in entries)

    # Seed implausibly fast same-host entries: any real run regresses
    # against their median.
    for _ in range(5):
        append_entry(make_entry("bench", {
            "total_seconds": 1e-6,
            "cases": {"dc_filter@HOM32/full": 1e-6},
        }), ledger_path(repro.cache))
    repro.run("bench", "--cases", "dc_filter@HOM32/full", "--warmup", 0,
              "--repeat", 1, "--quiet", "--compare-ledger", code=3)

    repro.run("report", "--out", "dashboard.html",
              "--trace", "sweep-trace.json")
    text = (repro.dir / "dashboard.html").read_text()
    assert text.startswith("<!DOCTYPE html>"), text[:40]
    assert text.rstrip().endswith("</html>")
    assert '<svg class="sparkline"' in text
    assert '<table class="critical-path">' in text
    assert "<script" not in text, "dashboard must carry no JS"
