"""Shared plumbing for the end-to-end scenarios.

Each scenario drives the real CLI in subprocesses (``python -m repro``
with ``src/`` importable and a private ``REPRO_CACHE_DIR`` under the
test's ``tmp_path``), so what CI runs is exactly what runs locally::

    python -m pytest scenarios -q            # or one scenarios/test_*.py

Tier-1 does not collect this directory (``testpaths = tests``): the
scenarios take minutes, the full paper sweep among them.  Everything a
scenario writes (payloads, reports, traces, server logs) stays in its
``tmp_path``; on failure the ``*.log`` files there are attached to the
report.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def rows(payload):
    """``(pos, spec, point)`` per point, wall-clock compile time dropped.

    Two sweep payloads with equal rows agree on every deterministic
    field; neither may carry a crashed point.
    """
    assert payload["summary"]["crashed"] == 0, payload["summary"]
    out = []
    for rec in payload["points"]:
        point = dict(rec["point"])
        point.pop("compile_seconds")  # wall clock
        out.append((rec["pos"], rec["spec"], point))
    return out


class Repro:
    """``python -m repro`` in ``tmp_path``, with a private cache."""

    def __init__(self, tmp_path):
        self.dir = tmp_path
        self.cache = tmp_path / "cache"
        self.env = {key: value for key, value in os.environ.items()
                    if key not in ("REPRO_FAULT", "REPRO_CACHE_MAX_BYTES")}
        self.env.update(PYTHONPATH=str(SRC),
                        REPRO_CACHE_DIR=str(self.cache))

    def argv(self, *args):
        return [sys.executable, "-m", "repro", *map(str, args)]

    def run(self, *args, code=0, env=None, out=None):
        """Run to completion; assert the exit code, return stdout.

        ``out`` also saves stdout under that file name.  Every run's
        stderr is appended to ``cli.log``.
        """
        done = subprocess.run(self.argv(*args), cwd=self.dir,
                              env={**self.env, **(env or {})},
                              capture_output=True, text=True,
                              timeout=1200)
        with open(self.dir / "cli.log", "a") as log:
            log.write(f"$ repro {' '.join(map(str, args))}\n")
            log.write(done.stderr)
        if out is not None:
            (self.dir / out).write_text(done.stdout)
        assert done.returncode == code, done.stderr[-4000:]
        return done.stdout

    def json(self, *args, **kwargs):
        return json.loads(self.run(*args, **kwargs))

    def load(self, name):
        return json.loads((self.dir / name).read_text())


@pytest.fixture
def repro(tmp_path):
    return Repro(tmp_path)


def http_json(url, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One background ``repro serve --workers 2``, logging to a file."""

    def __init__(self, repro, name, *args, env=None, port=None,
                 cache_dir=None):
        self.name = name
        self.port = port or free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.cache_dir = cache_dir or repro.dir / f"serve-cache-{name}"
        self.dir = repro.dir
        with open(repro.dir / f"serve-{name}.log", "a") as log:
            # Own session: teardown reaps the pool workers with it.
            self.proc = subprocess.Popen(
                repro.argv("serve", "--port", self.port, "--workers", 2,
                           "--cache-dir", self.cache_dir, *args),
                cwd=repro.dir, env={**repro.env, **(env or {})},
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)

    def get(self, path):
        return http_json(self.url + path)

    def post(self, path, body):
        return http_json(self.url + path, body)

    def wait_healthy(self, seconds=30):
        deadline = time.monotonic() + seconds
        while True:
            assert self.proc.poll() is None, f"{self.name} exited"
            try:
                self.health = self.get("/healthz")
                return self
            except OSError:
                assert time.monotonic() < deadline, \
                    f"{self.name} not healthy after {seconds}s"
                time.sleep(0.5)

    def wait_for(self, predicate, path="/v1/sweeps", seconds=60):
        """Poll ``GET path`` until ``predicate(doc)``; return the doc."""
        deadline = time.monotonic() + seconds
        while True:
            doc = self.get(path)
            if predicate(doc):
                return doc
            assert time.monotonic() < deadline, doc
            time.sleep(0.2)

    def sigkill(self):
        """SIGKILL the server process alone, as a crash would."""
        self.proc.kill()
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc.poll() is None:
            # Server-side state for the artifact, then the process.
            for path in ("/v1/sweeps", "/v1/cache/stats"):
                name = path.strip("/").replace("/", "-")
                try:
                    (self.dir / f"serve-{self.name}-{name}.json") \
                        .write_text(json.dumps(self.get(path)))
                except OSError:
                    pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


@pytest.fixture
def serve(repro):
    """Factory: ``serve(name, *serve_args, env=, port=, cache_dir=)``.

    Boots a server on a free port (or ``port``), waits for
    ``/healthz``; every server (and its pool workers) is killed at
    teardown, pass or fail.
    """
    servers = []

    def boot(name, *args, **kwargs):
        servers.append(Server(repro, name, *args, **kwargs))
        return servers[-1].wait_healthy()

    yield boot
    for server in servers:
        server.stop()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Attach every ``*.log`` of a failed scenario to its report."""
    report = (yield).get_result()
    tmp_path = getattr(item, "funcargs", {}).get("tmp_path")
    if report.failed and tmp_path is not None:
        for log in sorted(tmp_path.glob("*.log")):
            report.sections.append(
                (f"log {log.name}", log.read_text(errors="replace")))
