"""The full 140-point paper sweep, computed as four deterministic
shards and merged back: the merge must be exactly the complete
cartesian batch.  Then the warm-cache smoke through the process pool.
"""

from repro.runtime.sweep import sweep_specs

SHARDS = 4


def test_four_shards_merge_to_the_full_sweep(repro):
    files = []
    for shard in range(SHARDS):
        files.append(f"sweep-shard-{shard}.json")
        payload = repro.json("sweep", "--shard", f"{shard}/{SHARDS}",
                             "--workers", 2, "--json", out=files[-1])
        assert payload["summary"]["crashed"] == 0, payload["summary"]

    merged = repro.json("merge", *files, "--json", out="merged.json")
    specs = sweep_specs()
    points = merged["points"]
    assert merged["spec_total"] == len(specs), merged["spec_total"]
    assert len(points) == len(specs), len(points)
    assert [p["pos"] for p in points] == list(range(len(specs)))
    got = {(p["spec"]["kernel"], p["spec"]["config"],
            p["spec"]["variant"]) for p in points}
    assert got == {(s.kernel_name, s.config_name, s.variant)
                   for s in specs}, "merged specs differ from sweep_specs()"
    assert merged["summary"]["crashed"] == 0


def test_warm_rerun_computes_nothing(repro):
    argv = ["sweep", "--kernels", "dc_filter", "--configs", "HOM64,HET1",
            "--variants", "basic,full", "--workers", 2, "--json"]
    cold = repro.json(*argv, out="cold.json")["summary"]
    warm = repro.json(*argv, out="warm.json")["summary"]
    assert cold["computed"] == 4, cold
    assert warm["computed"] == 0, warm
    assert warm["cache_hits"] == 4, warm
