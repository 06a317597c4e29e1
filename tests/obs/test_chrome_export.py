"""Chrome trace-event export edge cases.

The exporter's output is only as good as what Perfetto (and our own
``spans_from_chrome``) can load back: names that need JSON escaping,
spans too fast for microsecond resolution, and — most importantly —
traces captured by ``--trace-out`` on a run that *failed*, because
the trace of the run that misbehaved is the one worth keeping.
"""

import json

from repro.cli import main
from repro.obs import trace
from repro.obs.analyze import spans_from_chrome
from repro.runtime.sweep import ExperimentPoint


class TestEscaping:
    def test_names_needing_json_escaping_round_trip(self):
        trace.enable_tracing()
        evil = 'kernel "fir"\\path\nline2\ttab'
        with trace.span(evil, note='quote " and \\ slash'):
            pass
        document = trace.chrome_trace(trace.drain_spans())
        # The document must survive a strict JSON round trip ...
        text = json.dumps(document)
        reloaded = json.loads(text)
        events = [e for e in reloaded["traceEvents"]
                  if e.get("ph") == "X"]
        assert events[0]["name"] == evil
        assert events[0]["args"]["note"] == 'quote " and \\ slash'
        # ... and reconstruct to the same span.
        spans = spans_from_chrome(reloaded)
        assert spans[0]["name"] == evil

    def test_written_file_is_strict_json(self, tmp_path):
        trace.enable_tracing()
        with trace.span('a "quoted" name'):
            pass
        path = tmp_path / "t.json"
        trace.write_chrome_trace(path, trace.drain_spans())
        with open(path) as fh:
            document = json.load(fh)
        assert spans_from_chrome(document)[0]["name"] == \
            'a "quoted" name'


class TestZeroDuration:
    def test_zero_wall_span_exports_min_duration(self):
        span = {
            "name": "instant", "trace_id": "t" * 32,
            "span_id": "a" * 16, "parent_id": None,
            "start_unix_us": 10, "wall_us": 0, "cpu_us": 0,
            "pid": 1, "thread": "main", "status": "ok", "attrs": {},
        }
        document = trace.chrome_trace([span])
        events = [e for e in document["traceEvents"]
                  if e.get("ph") == "X"]
        # dur 0 renders as an invisible sliver in Perfetto; the
        # exporter floors it at 1us.
        assert events[0]["dur"] >= 1

    def test_zero_duration_span_still_analyzable(self):
        span = {
            "name": "instant", "trace_id": "t" * 32,
            "span_id": "a" * 16, "parent_id": None,
            "start_unix_us": 10, "wall_us": 0, "cpu_us": 0,
            "pid": 1, "thread": "main", "status": "ok", "attrs": {},
        }
        back = spans_from_chrome(trace.chrome_trace([span]))
        assert back[0]["span_id"] == "a" * 16
        assert back[0]["wall_us"] >= 0


class TestTraceOnFailingExit:
    def failing_point(self, spec):
        spec = spec.resolve()
        return ExperimentPoint(
            spec.kernel_name, spec.config_name, spec.variant,
            compile_seconds=0.0, error="injected crash")

    def test_trace_out_written_when_sweep_crashes(self, tmp_path,
                                                  monkeypatch,
                                                  capsys):
        from repro.runtime import pool
        monkeypatch.setattr(pool, "_compute_captured",
                            self.failing_point)
        out = tmp_path / "crash-trace.json"
        code = main(["sweep", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--no-cache", "--quiet",
                     "--trace-out", str(out)])
        assert code == 1  # the crashed sweep still fails the run
        assert "spans ->" in capsys.readouterr().err
        with open(out) as fh:
            document = json.load(fh)
        spans = spans_from_chrome(document)
        assert any(s["name"] == "sweep" for s in spans)

    def test_trace_out_written_on_usage_error(self, tmp_path,
                                              capsys):
        # A ReproError exit (1) must still leave a valid — possibly
        # empty — trace file behind.
        out = tmp_path / "usage-trace.json"
        code = main(["sweep", "--kernels", "no_such_kernel",
                     "--quiet", "--no-cache",
                     "--trace-out", str(out)])
        assert code == 1
        capsys.readouterr()
        with open(out) as fh:
            document = json.load(fh)
        assert isinstance(document["traceEvents"], list)

    def test_unwritable_trace_out_is_one_error_line(self, tmp_path,
                                                    capsys):
        missing = tmp_path / "missing" / "trace.json"
        # The sweep itself succeeds; losing its trace fails the run.
        code = main(["sweep", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--no-cache", "--quiet",
                     "--trace-out", str(missing)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert str(missing) in errors[0]

    def test_unwritable_trace_out_keeps_the_run_status(self, tmp_path,
                                                       capsys):
        # Zero tolerances turn the known one-cycle backend gap into a
        # differential verdict (exit 4) the lost trace must not mask.
        missing = tmp_path / "missing" / "trace.json"
        code = main(["diff", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--no-cache", "--quiet", "--abs-tol", "0",
                     "--rel-tol", "0", "--trace-out", str(missing)])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: cannot write trace to {missing}" in err
