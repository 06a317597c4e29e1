"""The DSE subsystem end to end: a tiny bounded exploration runs
cold, its frontier must be non-empty and valid (no frontier point
dominates another; every other mapped design is dominated); the warm
re-run must recompute nothing and reproduce the same frontier.
"""

from repro.dse.pareto import dominates

EXPLORE = ["explore", "--space", "ladder", "--depths", "8,16,32,64",
           "--kernels", "dc_filter,fir", "--strategy", "exhaustive",
           "--workers", 2, "--quiet", "--json"]


def test_cold_frontier_valid_then_warm_identical(repro):
    cold = repro.json(*EXPLORE, out="cold.json")
    assert cold["kind"] == "exploration"
    front = [d for d in cold["designs"] if d["frontier"]]
    rest = [d for d in cold["designs"]
            if not d["frontier"] and d["complete"]
            and d["metrics"]["mappability"] > 0]
    assert front, "empty frontier"
    for a in front:
        for b in front:
            assert not dominates(tuple(a["vector"]), tuple(b["vector"]))
    for d in rest:
        assert any(dominates(tuple(f["vector"]), tuple(d["vector"]))
                   for f in front), d["name"]
    summary = cold["summary"]
    assert summary["computed"] == summary["evaluated_pairs"]
    assert summary["computed"] > 0

    warm = repro.json(*EXPLORE, out="warm.json")
    assert warm["summary"]["computed"] == 0, warm["summary"]
    assert warm["summary"]["cache_hits"] \
        == summary["evaluated_pairs"], warm["summary"]
    assert warm["frontier"] == cold["frontier"]
    assert [d["vector"] for d in warm["designs"]] \
        == [d["vector"] for d in cold["designs"]]
