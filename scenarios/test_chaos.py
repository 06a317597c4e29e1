"""The self-healing runtime end to end, three acceptance checks:
(1) ``repro chaos``: a fault-injected sweep (every point's first
attempt kills its worker; warm cache reads are garbled) must land on
exactly the clean run's answer, with zero lost points and zero
quarantines; (2) a wedged point (injected hang) must come back as a
``timeout:`` error point within the deadline + grace budget instead
of hanging the sweep; (3) a server SIGKILLed mid-job, restarted with
``--resume``, must finish the journaled job under its original ID.
"""

import time

HANG = {"REPRO_FAULT": "point_hang:p=1,seconds=300"}


def test_faulted_sweep_equals_clean_run(repro):
    repro.run("chaos", "--kernels", "dc_filter,fir", "--configs",
              "HOM64,HET1", "--variants", "basic,full", "--workers", 2,
              "--quiet", "--out", "chaos-report.json")
    report = repro.load("chaos-report.json")
    assert report["ok"], report["verdict"]
    phases = report["phases"]
    assert phases["clean"]["restarts"] == 0, phases
    # Cold phase: injected crashes broke (and healed) the pool.
    assert phases["fault_cold"]["restarts"] >= 1, phases
    assert phases["fault_cold"]["retries"] >= 1, phases
    # Warm phase: corrupt entries were discarded and recomputed.
    assert phases["fault_warm"]["corrupt_entries"] >= 1, phases
    verdict = report["verdict"]
    assert verdict["mismatched"] == [], verdict
    assert verdict["lost"] == [], verdict
    assert verdict["quarantined"] == [], verdict


def test_wedged_point_lands_as_timeout(repro):
    start = time.monotonic()
    # Exit 1: the sweep completes, reporting its one error point.
    payload = repro.json(
        "sweep", "--kernels", "dc_filter", "--configs", "HOM64",
        "--variants", "basic", "--workers", 2, "--point-timeout", 5,
        "--no-cache", "--quiet", "--json", out="hang.json", code=1,
        env={**HANG, "REPRO_POINT_ATTEMPTS": "1"})
    elapsed = time.monotonic() - start
    assert payload["summary"]["crashed"] == 1, payload["summary"]
    [rec] = payload["points"]
    error = rec["point"]["error"]
    assert error and error.startswith("timeout:"), error
    assert "5s deadline" in error, error
    # One attempt at deadline 5s + 5s spawn grace, plus pool
    # setup/teardown: anywhere near the injected 300s hang means the
    # watchdog never reaped the worker.
    assert elapsed < 90, f"timeout containment took {elapsed:.0f}s"


def test_sigkilled_server_resumes_journaled_job(serve):
    # Every point of the first server hangs, so the job is certainly
    # still unfinished in the journal when the server dies.
    first = serve("first", env=HANG)
    job_id = first.post("/v1/sweeps", {
        "kernels": ["dc_filter", "fir", "convolution", "sep_filter"],
        "configs": ["HOM64", "HET1"], "variants": ["basic", "full"],
    })["id"]
    first.wait_for(lambda job: job["status"] == "running",
                   path=f"/v1/sweeps/{job_id}")
    first.sigkill()

    second = serve("second", "--resume", port=first.port,
                   cache_dir=first.cache_dir)
    replay = second.health["journal"]["replay"]
    assert replay["requeued"] >= 1, replay
    job = second.wait_for(lambda job: job["status"] in ("done", "failed"),
                          path=f"/v1/sweeps/{job_id}", seconds=120)
    assert job["id"] == job_id, job
    assert job["status"] == "done", job
    assert job["landed"] == job["points"] == 16, job
