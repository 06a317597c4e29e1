"""Sampling profiler: collection, scoping, collapsed-stack output."""

import time
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.flame import (
    SamplingProfiler,
    capture,
    collapsed_lines,
    render_flame,
    write_collapsed,
)
from repro.perf.ledger import append_entry, ledger_path, make_entry


def busy_wait(seconds):
    """A distinctive frame the sampler can catch."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestSamplingProfiler:
    def test_catches_busy_function(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        busy_wait(0.15)
        counts = profiler.stop()
        assert sum(counts.values()) > 0
        assert any("busy_wait" in stack for stack in counts)

    def test_zero_hz_rejected(self):
        with pytest.raises(ReproError, match="sampling rate"):
            SamplingProfiler(hz=0)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        try:
            with pytest.raises(ReproError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_idempotent(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        first = profiler.stop()
        assert profiler.stop() is first

    def test_thread_pinning_excludes_other_threads(self):
        import threading
        stop = threading.Event()

        def noisy_wait():
            stop.wait(2.0)

        noisy = threading.Thread(target=noisy_wait, daemon=True)
        noisy.start()
        profiler = SamplingProfiler(
            hz=400, thread_ids={threading.get_ident()})
        profiler.start()
        busy_wait(0.1)
        counts = profiler.stop()
        stop.set()
        # The unpinned thread's distinctive frame never appears.
        assert counts
        assert not any("noisy_wait" in stack for stack in counts)

    def test_stack_order_outermost_first(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        busy_wait(0.1)
        counts = profiler.stop()
        stack = next(s for s in counts if "busy_wait" in s)
        frames = stack.split(";")
        # busy_wait is innermost — at the tail, not the head.
        assert "busy_wait" in frames[-1]


class TestCapture:
    def test_samples_only_the_calling_thread(self):
        import threading
        stop = threading.Event()

        def noisy_wait():
            stop.wait(2.0)

        noisy = threading.Thread(target=noisy_wait, daemon=True)
        noisy.start()
        with capture(hz=400) as profiler:
            busy_wait(0.1)
        stop.set()
        assert any("busy_wait" in stack for stack in profiler.counts)
        assert not any("noisy_wait" in stack
                       for stack in profiler.counts)

    def test_writes_stacks_even_when_the_body_fails(self, tmp_path,
                                                    capsys):
        target = tmp_path / "failed.flame"
        with pytest.raises(RuntimeError):
            with capture(target, hz=400):
                busy_wait(0.1)
                raise RuntimeError("the run misbehaved")
        assert "busy_wait" in target.read_text()
        assert "stack sample(s) @ 400 Hz" in capsys.readouterr().err

    def test_unwritable_path_is_reported_not_raised(self, tmp_path):
        target = tmp_path / "missing" / "out.flame"
        with capture(target, hz=400) as profiler:
            busy_wait(0.05)
        assert profiler.write_error.startswith(
            f"cannot write flame stacks to {target}")
        assert not target.exists()


class TestCollapsedOutput:
    def test_lines_sorted_and_formatted(self):
        counts = Counter({"m.f;m.g": 2, "m.a": 5})
        assert collapsed_lines(counts) == ["m.a 5", "m.f;m.g 2"]

    def test_write_collapsed_round_trips(self, tmp_path):
        counts = Counter({"mod.outer;mod.inner": 7})
        path = tmp_path / "out.flame"
        write_collapsed(path, counts)
        assert path.read_text() == "mod.outer;mod.inner 7\n"

    def test_render_flame_ranks_leaves(self):
        counts = Counter({"a;b;hot": 80, "a;b;cold": 20})
        text = render_flame(counts)
        assert "100 sample(s)" in text
        assert text.index("hot") < text.index("cold")

    def test_render_empty_suggests_fix(self):
        assert "raise --hz" in render_flame(Counter())


class TestCliFlame:
    def test_profile_flame_renders_table(self, capsys):
        assert main(["profile", "--kernel", "dc_filter",
                     "--config", "HOM64", "--variant", "basic",
                     "--flame", "--hz", "600", "--repeat", "4"]) == 0
        out = capsys.readouterr().out
        assert "flame: dc_filter@HOM64/basic" in out
        assert "sample" in out

    def test_profile_flame_out_writes_collapsed(self, tmp_path,
                                                capsys):
        target = tmp_path / "case.flame"
        assert main(["profile", "--kernel", "dc_filter",
                     "--config", "HOM64", "--variant", "basic",
                     "--flame", "--hz", "600", "--repeat", "4",
                     "--flame-out", str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        # Collapsed format: "frame;frame;... count".
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in lines if line)

    def test_hz_without_flame_rejected(self, capsys):
        assert main(["profile", "--kernel", "dc_filter",
                     "--hz", "100"]) == 1
        assert "--hz only applies" in capsys.readouterr().err

    def test_sweep_flame_out(self, tmp_path, capsys):
        target = tmp_path / "sweep.flame"
        assert main(["sweep", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--cache-dir", str(tmp_path), "--quiet",
                     "--flame-out", str(target)]) == 0
        err = capsys.readouterr().err
        assert target.exists()
        assert "stack sample(s)" in err

    def test_unwritable_flame_out_is_one_error_line(self, tmp_path,
                                                    capsys):
        missing = tmp_path / "missing" / "run.flame"
        # The sweep itself succeeds; losing its profile fails the run.
        assert main(["sweep", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--no-cache", "--quiet",
                     "--flame-out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert str(missing) in errors[0]

    def test_unwritable_flame_out_keeps_the_run_status(self, tmp_path,
                                                       capsys):
        # An implausibly fast ledger baseline makes the bench gate
        # fail (exit 3); the lost profile must not mask that verdict.
        case = "dc_filter@HOM64/basic"
        append_entry(make_entry("bench", {"total_seconds": 1e-6,
                                          "cases": {case: 1e-6}}),
                     ledger_path())
        missing = tmp_path / "missing" / "bench.flame"
        assert main(["bench", "--cases", case, "--warmup", "0",
                     "--repeat", "1", "--quiet", "--compare-ledger",
                     "--flame-out", str(missing)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: cannot write flame stacks to {missing}" in err
