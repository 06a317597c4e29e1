"""The HTTP service end to end: dispatch the two shards of a small
sweep to one ``repro serve`` with two ``repro submit`` invocations,
merge the payloads, and require the result to match the plain
single-process batch run on every deterministic field; the jobs must
show in ``/metrics``.  Plus one sample pipeline trace.
"""

import urllib.request

from conftest import rows

AXES = ["--kernels", "dc_filter,fir", "--configs", "HOM64,HET1",
        "--variants", "basic,full"]


def scrape(url):
    """Parse the Prometheus 0.0.4 text exposition into ``{name: value}``.

    Every sample line is ``name{labels} value``, every metadata line
    starts with ``#``; ``float`` also validates the format.
    """
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        text = response.read().decode()
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def test_http_shards_equal_local_batch(repro, serve):
    server = serve("main")
    local = repro.json("sweep", *AXES, "--no-cache", "--quiet", "--json",
                       out="local.json")
    files = []
    for shard in (0, 1):
        files.append(f"shard-{shard}.json")
        repro.run("submit", "--server", server.url, *AXES,
                  "--shard", f"{shard}/2", "--quiet", "--json",
                  out=files[-1])
    merged = repro.json("merge", *files, "--json", out="merged.json")
    assert rows(merged) == rows(local), "HTTP-sharded sweep != local batch"

    # The two shards must show up in the serve-tier counters, and the
    # pipeline counters must have moved: a /metrics that serves but
    # never increments would pass a format-only check.
    samples = scrape(server.url)
    assert samples['repro_jobs_total{status="done"}'] == 2, samples
    assert samples['repro_points_total{source="computed"}'] == 8, samples
    assert samples["repro_cache_stores_total"] > 0, samples
    assert samples["repro_job_seconds_count"] == 2, samples
    assert sum(v for k, v in samples.items()
               if k.startswith("repro_http_requests_total")) > 0, samples


def test_sample_pipeline_trace(repro):
    repro.run("sweep", "--kernels", "dc_filter", "--configs", "HOM64",
              "--variants", "basic", "--no-cache", "--quiet",
              "--trace-out", "trace-sample.json")
    events = repro.load("trace-sample.json")["traceEvents"]
    names = {e["name"] for e in events}
    assert {"sweep", "point", "map", "execute"} <= names, names
    assert all(e["ph"] == "X" and e["dur"] >= 1 for e in events)
