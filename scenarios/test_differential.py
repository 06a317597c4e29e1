"""The two execution backends (analytic lockstep vs cycle-level
event-driven) run the same kernel subset; any outcome-class, output
or beyond-tolerance cycle disagreement makes ``repro diff`` exit 4.
The per-point report stays in ``tmp_path``, pass or fail.
"""


def test_backends_agree_on_smoke_subset(repro):
    repro.run("diff", "--kernels", "dc_filter,fir,convolution,sep_filter",
              "--workers", 2, "--no-cache", "--quiet",
              "--out", "diff-report.json")
