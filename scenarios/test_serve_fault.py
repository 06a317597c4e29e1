"""Failover end to end, with a real process kill: two servers, a
sharded dispatch across both, SIGKILL one mid-sweep; the client must
detect the missing shard, resubmit it to the survivor, and the merged
payload must equal the unsharded local batch on every deterministic
field.

The victim runs with every point wedged (``point_hang``), so its shard
cannot finish before the kill, and it is killed only once its job is
``running``: the failover is certain to happen, not a race against a
sleep.
"""

import subprocess

from conftest import rows

AXES = ["--kernels", "dc_filter,fir,convolution,sep_filter",
        "--configs", "HOM64,HET1", "--variants", "basic,full"]
HANG = {"REPRO_FAULT": "point_hang:p=1,seconds=300"}


def test_sigkilled_server_shard_fails_over(repro, serve):
    survivor = serve("survivor")
    victim = serve("victim", env=HANG)
    local = repro.json("sweep", *AXES, "--no-cache", "--quiet", "--json",
                       out="local.json")

    with open(repro.dir / "merged.json", "w") as out, \
            open(repro.dir / "submit.log", "w") as log:
        submit = subprocess.Popen(
            repro.argv("submit", "--server",
                       f"{survivor.url},{victim.url}", *AXES,
                       "--shard-across", "--quiet", "--json"),
            cwd=repro.dir, env=repro.env, stdout=out, stderr=log)
        try:
            victim.wait_for(lambda doc: any(
                job["status"] == "running" for job in doc["jobs"]))
            victim.sigkill()
            assert submit.wait(timeout=600) == 0
        finally:
            submit.kill()

    assert rows(repro.load("merged.json")) == rows(local), \
        "failover dispatch != unsharded local batch"
    # The survivor ran its own shard and the resubmitted one.
    jobs = survivor.get("/v1/sweeps")["jobs"]
    assert sorted(job["shard"]["index"] for job in jobs
                  if job["status"] == "done") == [0, 1], jobs
