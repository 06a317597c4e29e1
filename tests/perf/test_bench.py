"""repro.perf — harness, schema and the regression gate."""

import json

import pytest

from repro import cli
from repro.errors import ReproError
from repro.perf import (
    BENCH_JSON_SCHEMA,
    BenchCase,
    bench_payload,
    compare_benchmarks,
    default_cases,
    load_bench_file,
    parse_bench_payload,
    parse_case,
    profile_case,
    render_bench,
    render_comparison,
    run_bench,
)


class TestCases:
    def test_parse_case(self):
        case = parse_case("fft@hom32/full")
        assert case == BenchCase("fft", "HOM32", "full")
        assert case.name == "fft@HOM32/full"

    @pytest.mark.parametrize("text", [
        "fft", "fft@HOM32", "nope@HOM32/full", "fft@NOPE/full",
        "fft@HOM32/nope"])
    def test_parse_case_rejects_junk(self, text):
        with pytest.raises(ReproError):
            parse_case(text)

    def test_default_cases_are_the_tracked_suite(self):
        from repro.kernels import PAPER_KERNEL_ORDER
        cases = default_cases()
        assert [c.kernel for c in cases] == list(PAPER_KERNEL_ORDER)
        assert {c.config for c in cases} == {"HOM32"}
        assert {c.variant for c in cases} == {"full"}

    def test_default_cases_axes(self):
        cases = default_cases(kernels=("fir",),
                              configs=("HOM32", "het1"),
                              variants=("basic", "full"))
        assert len(cases) == 4
        assert {c.config for c in cases} == {"HOM32", "HET1"}


class TestHarness:
    def test_run_bench_payload_shape(self):
        results = run_bench([BenchCase("dc_filter", "HOM32", "basic")],
                            warmup=0, repeat=2)
        payload = bench_payload(results, warmup=0, repeat=2,
                                reducer="min", created_unix=123)
        parsed = parse_bench_payload(payload)
        assert parsed["schema"] == BENCH_JSON_SCHEMA
        (case,) = parsed["cases"]
        assert case["case"] == "dc_filter@HOM32/basic"
        assert case["seconds"] == min(case["samples"])
        assert len(case["samples"]) == 2
        assert case["counts"]["mapped"] is True
        assert case["counts"]["ops"] > 0
        assert payload["total_seconds"] == case["seconds"]
        assert payload["host"]["python"]
        assert render_bench(payload)  # renders without blowing up

    def test_run_bench_rejects_bad_knobs(self):
        case = BenchCase("dc_filter", "HOM32", "basic")
        with pytest.raises(ReproError):
            run_bench([case], repeat=0)
        with pytest.raises(ReproError):
            run_bench([case], reducer="p99")

    def test_profile_case_reports_hot_functions(self):
        text, result = profile_case(
            BenchCase("dc_filter", "HOM32", "basic"), top=5)
        assert "map_kernel" in text
        assert result is not None


def _payload_with(seconds_by_case, counts=None):
    cases = [{"case": name, "kernel": name.split("@")[0],
              "config": "HOM32", "variant": "full",
              "seconds": seconds, "samples": [seconds],
              "counts": dict(counts or {"mapped": True})}
             for name, seconds in seconds_by_case.items()]
    return bench_payload(cases, warmup=0, repeat=1, reducer="min")


class TestCompare:
    def test_detects_injected_regression(self):
        baseline = _payload_with({"a@HOM32/full": 1.0,
                                  "b@HOM32/full": 2.0})
        current = _payload_with({"a@HOM32/full": 1.1,
                                 "b@HOM32/full": 3.0})
        rows, regressions = compare_benchmarks(current, baseline, 25.0)
        assert len(rows) == 2
        assert [r["case"] for r in regressions] == ["b@HOM32/full"]
        assert regressions[0]["delta_pct"] == 50.0
        assert "REGRESSION" in render_comparison(rows, regressions,
                                                 25.0)

    def test_faster_and_new_cases_are_fine(self):
        baseline = _payload_with({"a@HOM32/full": 2.0})
        current = _payload_with({"a@HOM32/full": 1.0,
                                 "new@HOM32/full": 9.0})
        _, regressions = compare_benchmarks(current, baseline, 25.0)
        assert regressions == []

    def test_changed_counts_regress_even_when_faster(self):
        counts = {"mapped": True, "blocks": 4, "attempts": 6, "ops": 52,
                  "movs": 5, "pnops": 17, "words": 74}
        baseline = _payload_with({"a@HOM32/full": 2.0,
                                  "b@HOM32/full": 2.0}, counts)
        current = _payload_with({"a@HOM32/full": 1.0,
                                 "b@HOM32/full": 1.0},
                                dict(counts, movs=6, words=75))
        current["cases"][0]["counts"] = dict(counts)
        rows, regressions = compare_benchmarks(current, baseline, 25.0)
        assert rows[0]["count_changes"] == {}
        assert [r["case"] for r in regressions] == ["b@HOM32/full"]
        assert regressions[0]["count_changes"] == {"movs": [5, 6],
                                                   "words": [74, 75]}
        text = render_comparison(rows, regressions, 25.0)
        assert "counts changed: movs 5->6, words 74->75" in text
        assert "1 case(s) regressed" in text

    def test_lost_mapping_is_a_count_change(self):
        baseline = _payload_with({"a@HOM32/full": 2.0},
                                 {"mapped": True, "movs": 5})
        current = _payload_with({"a@HOM32/full": 1.0}, {"mapped": False})
        _, regressions = compare_benchmarks(current, baseline, 25.0)
        assert regressions[0]["count_changes"] == {
            "mapped": [True, False], "movs": [5, None]}

    def test_baseline_without_counts_gates_time_only(self):
        # The ledger's rolling baseline carries seconds only.
        baseline = {"cases": [{"case": "a@HOM32/full", "seconds": 2.0}]}
        current = _payload_with({"a@HOM32/full": 1.0},
                                {"mapped": True, "movs": 9})
        rows, regressions = compare_benchmarks(current, baseline, 25.0)
        assert rows[0]["count_changes"] == {}
        assert regressions == []

    def test_load_bench_file_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"kind\": \"sweep\"}")
        with pytest.raises(ReproError):
            load_bench_file(path)
        path.write_text("not json")
        with pytest.raises(ReproError):
            load_bench_file(path)


class TestCLI:
    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path,
                                                       capsys):
        # An impossible-to-beat baseline: any real timing is a
        # regression beyond every threshold.
        baseline = _payload_with({"dc_filter@HOM32/basic": 1e-9})
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--compare", str(path)])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_compare_passes_generous_baseline(self, tmp_path,
                                                    capsys):
        baseline = _payload_with({"dc_filter@HOM32/basic": 1e9})
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--compare", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no case regressed" in out

    def test_bench_compare_exits_nonzero_on_changed_counts(self, tmp_path,
                                                          capsys):
        # A generous time budget, but a baseline mapping with one MOV
        # fewer than the mapper produces: the counts gate fails it.
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--json"])
        assert code == 0
        counts = json.loads(capsys.readouterr().out)["cases"][0]["counts"]
        baseline = _payload_with({"dc_filter@HOM32/basic": 1e9},
                                 dict(counts, movs=counts["movs"] - 1))
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--compare", str(path)])
        assert code == 3
        out = capsys.readouterr().out
        assert (f"counts changed: movs {counts['movs'] - 1}->"
                f"{counts['movs']}") in out

    def test_bench_json_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--json", "--out", str(out_file)])
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_file.read_text())
        assert stdout_doc["cases"][0]["case"] == "dc_filter@HOM32/basic"
        assert (file_doc["cases"][0]["case"]
                == stdout_doc["cases"][0]["case"])

    def test_profile_cli(self, capsys):
        code = cli.main(["profile", "--kernel", "dc_filter",
                         "--variant", "basic", "--top", "5"])
        assert code == 0
        assert "map_kernel" in capsys.readouterr().out
