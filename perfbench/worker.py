"""One fresh benchmark process: set up, run one slice, report JSON.

Started by ``run.py`` with the workload configuration as JSON on stdin
and a fresh ``REPRO_CACHE_DIR``; prints one JSON object as the last
line of stdout.  Modes:

- ``cold``  — compute a list of points cold through ``stream_specs``
  with ``workers=1`` and report per-point rows;
- ``serve`` — fill a cache through ``run_sweep``, start a server (built
  with ``make_server`` like ``repro serve``: journal on, ``workers=1``)
  in its own process, then run a closed loop of ``SweepClient.run``
  jobs with one job in flight.

Set-up time runs from the first line of this file to the start of the
timed region: imports, kernel and CGRA construction and, for serve,
the cache fill and the server start.
"""

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from layers import (  # noqa: E402
    LayerTracer,
    install_client_layers,
    install_compute_layers,
    install_server_layers,
)

#: How long the client waits for the server process to answer.
SERVER_TIMEOUT_S = 60.0
#: Calls of the binder's ``bind_candidates`` (one per operation bound,
#: about 0.5 ms each) per timed segment of a cold point.
SEGMENT_CALLS = 16


def peak_rss_mb():
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_digest(kernel, seed):
    """The digest a correct run's outputs must have.

    Same encoding as ``output_digest``, computed from the kernel's
    reference outputs instead of the executed memory image.
    """
    inputs = kernel.make_inputs(np.random.default_rng(seed))
    expected = kernel.reference(inputs)
    digest = hashlib.sha256()
    for region in kernel.output_regions:
        digest.update(region.encode("utf-8"))
        digest.update(",".join(str(int(value))
                               for value in expected[region])
                      .encode("ascii"))
    return digest.hexdigest()


def to_spec(row):
    from repro.runtime import PointSpec

    depths = row["cm_depths"]
    return PointSpec(row["kernel"], row["config"], row["variant"],
                     seed=row["seed"],
                     cm_depths=tuple(depths) if depths else None)


class SegmentClock:
    """Cuts each cold point's wall time into segments at fixed calls.

    A stamp is taken at every ``SEGMENT_CALLS``-th call of
    ``repro.mapping.binder.bind_candidates`` since the point began.
    The mapper is deterministic, so every pass of a run cuts a point at
    the same calls, and ``run.py`` can sum each segment's fastest pass.
    One counter and one clock read per call: far below 1% of the time.
    """

    def __init__(self):
        self.calls = 0
        self.stamps = []

    @classmethod
    def install(cls):
        """Wrap ``bind_candidates``; None when the binder has none."""
        import repro.mapping.binder

        original = getattr(repro.mapping.binder, "bind_candidates", None)
        if original is None:
            return None
        clock = cls()

        def bind_candidates(*args, **kwargs):
            clock.calls += 1
            if clock.calls % SEGMENT_CALLS == 0:
                clock.stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "repro"
                    and getattr(module, "bind_candidates", None)
                    is original):
                module.bind_candidates = bind_candidates
        return clock

    def cut(self, start, end):
        """The segments of the point that ran from ``start`` to ``end``;
        the next point counts its calls from zero."""
        edges = [start, *self.stamps, end]
        self.calls = 0
        self.stamps = []
        return [later - earlier for earlier, later in zip(edges, edges[1:])]


def warm_up(specs):
    """Build each kernel and CGRA once so lazy imports land in set-up."""
    from repro.kernels import get_kernel

    for spec in specs:
        get_kernel(spec.kernel_name)
        spec.resolve().build_cgra()


def point_row(spec, point, wall_s, segments=None):
    """One report row, checked against the reference outputs."""
    from repro.kernels import get_kernel
    from repro.runtime.sweep import DETERMINISTIC_ERRORS

    row = {"point": spec.describe(), "kernel": spec.kernel_name,
           "config": spec.config_name, "variant": spec.variant,
           "custom": spec.cm_depths is not None, "wall_s": wall_s,
           "segments": segments,
           "map_s": point.compile_seconds, "mapped": point.mapped,
           "outcome": point.error or "mapped", "crashed": False,
           "verified": None, "cycles": None, "words": None,
           "movs": None, "pnops": None, "energy_uj": None}
    if point.error not in DETERMINISTIC_ERRORS:
        row["crashed"] = True
        return row
    if point.mapped:
        mapping = point.mapping
        row.update(cycles=point.cycles, words=mapping.total_words,
                   movs=mapping.total_movs, pnops=mapping.total_pnops,
                   energy_uj=point.energy_uj)
        row["verified"] = point.output_digest == reference_digest(
            get_kernel(spec.kernel_name), spec.seed)
    return row


# ----------------------------------------------------------------------
# cold
# ----------------------------------------------------------------------
def run_cold(config):
    import repro.runtime.stream
    from repro.runtime import ResultCache

    specs = [to_spec(row) for row in config["points"]]
    warm_up(specs)
    cache = ResultCache(os.environ["REPRO_CACHE_DIR"])
    tracer = clock = None
    if config["trace"]:
        tracer = LayerTracer()
        install_compute_layers(tracer)
    else:
        clock = SegmentClock.install()
    setup_s = time.perf_counter() - STARTED

    # Looked up after the tracer is installed, so a traced run counts it.
    stream_specs = repro.runtime.stream.stream_specs
    landed = []
    start = last = time.perf_counter()
    for spec, point in stream_specs(specs, workers=1, cache=cache):
        now = time.perf_counter()
        segments = clock.cut(last, now) if clock is not None else None
        landed.append((spec, point, now - last, segments))
        last = now
    wall_s = last - start

    return {"setup_s": setup_s, "wall_s": wall_s,
            "rss_mb": peak_rss_mb(),
            "layers": tracer.snapshot() if tracer is not None else None,
            "rows": [point_row(spec, point, wall, segments)
                     for spec, point, wall, segments in landed]}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def wait_idle(tracer, timeout=5.0):
    deadline = time.monotonic() + timeout
    while tracer.busy() and time.monotonic() < deadline:
        time.sleep(0.01)


def serve_main(conn, cache_dir, traced):
    """Server process: serve until told to stop, then report."""
    from repro.runtime import ResultCache
    from repro.serve.journal import JobJournal, journal_path
    from repro.serve.server import make_server

    tracer = None
    if traced:
        tracer = LayerTracer()
        install_compute_layers(tracer)
        install_server_layers(tracer)
    server = make_server(port=0, workers=1,
                         cache=ResultCache(cache_dir), quiet=True,
                         journal=JobJournal(journal_path(cache_dir)))
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        conn.send(server.server_address[1])
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # the client died; just stop
            if message == "reset" and tracer is not None:
                # The readiness probe's handler may still be leaving
                # its wrapper; it must not be counted after the reset.
                wait_idle(tracer)
                tracer.reset()
            if message == "stop":
                break
            conn.send("ok")
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    if tracer is not None:
        # Handler threads are daemons: let the last one leave its
        # wrapper before the tables are read.
        wait_idle(tracer)
    conn.send({"rss_mb": peak_rss_mb(),
               "layers": tracer.snapshot() if tracer else None})


class ServerProcess:
    """The server in its own process, so it shares no GIL with us."""

    def __init__(self, cache_dir, traced):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=serve_main, args=(child, cache_dir, traced))
        self.process.start()
        child.close()
        self.port = self._recv()

    def _recv(self):
        if not self.conn.poll(SERVER_TIMEOUT_S):
            raise RuntimeError("server process did not answer")
        return self.conn.recv()

    def ask(self, message):
        self.conn.send(message)
        return self._recv()

    def stop(self):
        """Stop the server; return its report."""
        try:
            return self.ask("stop")
        finally:
            self.close()

    def close(self):
        self.conn.close()
        self.process.join(timeout=SERVER_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


def served_fields(point):
    """What a served point must carry, read off the library's object."""
    return {"kernel": point.kernel_name, "config": point.config_name,
            "variant": point.variant, "mapped": point.mapped,
            "cycles": point.cycles, "energy_uj": point.energy_uj,
            "error": point.error, "output_digest": point.output_digest,
            "compile_seconds": point.compile_seconds}


def check_payload(payload, expected, specs_json):
    """Every served point must equal the library result, field by field."""
    if payload["summary"]["computed"] != 0:
        return "the server computed points on a warm cache"
    records = sorted(payload["points"], key=lambda record: record["pos"])
    if [record["pos"] for record in records] != list(range(len(expected))):
        return "served positions do not cover the sweep"
    for record, want, spec in zip(records, expected, specs_json):
        got = {key: record["point"].get(key) for key in want}
        if record["spec"] != spec or got != want:
            return (f"position {record['pos']} "
                    f"({spec['kernel']}@{spec['config']}/"
                    f"{spec['variant']}): served point differs from "
                    f"the library's")
    return None


def run_serve(config):
    from repro.runtime import (
        ResultCache,
        run_sweep,
        spec_to_json,
        validated_sweep_specs,
    )
    from repro.serve import SweepClient

    request = config["request"]
    specs = validated_sweep_specs(
        kernels=request["kernels"], configs=request["configs"],
        variants=request["variants"], seed=request["seed"])
    cache_dir = os.environ["REPRO_CACHE_DIR"]
    cache = ResultCache(cache_dir)
    filled = run_sweep(specs, workers=1, cache=cache)
    library = run_sweep(specs, workers=1, cache=cache)
    rows = [point_row(spec.resolve(), point, None)
            for spec, point in zip(filled.specs, filled.points)]
    expected = [served_fields(point) for point in library.points]
    specs_json = [spec_to_json(spec.resolve()) for spec in specs]
    problems = []
    if library.computed:
        problems.append("the library re-computed a filled cache")
    if [served_fields(point) for point in filled.points] != expected:
        problems.append("cache read-back differs from the fill")

    traced = config["trace"]
    server = ServerProcess(cache_dir, traced)
    tracer = None
    try:
        client = SweepClient(f"http://127.0.0.1:{server.port}",
                             timeout=60.0, idle_timeout=60.0)
        client.health()
        if traced:
            tracer = LayerTracer()
            install_client_layers(tracer)
        server.ask("reset")
        setup_s = time.perf_counter() - STARTED

        latencies = []
        failures = []
        checking = 0.0
        jobs = config.get("jobs")
        seconds = config.get("seconds")
        loop_start = time.perf_counter()
        while True:
            sent = time.perf_counter()
            try:
                payload = client.run(request)
            except Exception as error:  # noqa: BLE001 — counted
                payload = None
                failures.append(f"{type(error).__name__}: {error}")
            done = time.perf_counter()
            latencies.append(done - sent)
            if payload is not None:
                problem = check_payload(payload, expected, specs_json)
                if problem is not None:
                    failures.append(problem)
            checking += time.perf_counter() - done
            if jobs is not None:
                if len(latencies) >= jobs:
                    break
            elif time.perf_counter() - loop_start >= seconds:
                break
        loop_s = time.perf_counter() - loop_start - checking
        client_layers = tracer.snapshot() if tracer is not None else None
        report = server.stop()
    finally:
        server.close()
    return {"setup_s": setup_s, "wall_s": loop_s,
            "rss_mb": report["rss_mb"], "latencies": latencies,
            "failures": failures, "problems": problems, "rows": rows,
            "client_layers": client_layers,
            "layers": report["layers"]}


def main():
    mode = sys.argv[1]
    config = json.loads(sys.stdin.read())
    result = run_cold(config) if mode == "cold" else run_serve(config)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
