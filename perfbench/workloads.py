"""The benchmark's workloads: which points, in which order, from a seed.

The workload seed sets three things and nothing else: the input data
(``PointSpec.seed``), the order the points run in, and the order of the
serve request's axes.  ``FlowOptions`` stay the variant presets, so the
mappings are the ones ``tests/golden/mappings.json`` pins.

Why each workload exists:

- ``cold_paper`` — Table I points, every kernel on HOM32 and HET1 under
  ``basic`` and ``full``, computed cold.  The mapper's success path:
  every point maps, so the quality sums compare like for like.
- ``cold_tight`` — custom homogeneous depths at the edge of
  mappability (DSE-style).  Most time goes to failed attempts, CM
  retries, recomputation and schedule stretching; overflowing points
  skip simulation and pricing.
- ``serve_warm`` — closed-loop sweep jobs against a server over a
  pre-filled cache.  The mapper does no work; cache reads, shard JSON,
  the HTTP handlers, the job scheduler and the journal do all of it.
"""

from __future__ import annotations

import math
import random

# (kernel, config, variant).  Each kernel appears once, in its fastest
# configuration; together the seven points cover HOM32/HET1 x
# basic/full.  fir and dc_filter at HET1/full are also in
# tests/golden/points.json, which the benchmark checks them against.
# The full 28-point grid takes ~45 s cold on one core; these seven take
# ~7 s, so a run can time every point in several passes.
COLD_PAPER = (
    ("fir", "HET1", "full"),
    ("matmul", "HOM32", "full"),
    ("convolution", "HET1", "basic"),
    ("sep_filter", "HET1", "basic"),
    ("nonsep_filter", "HOM32", "basic"),
    ("fft", "HOM32", "full"),
    ("dc_filter", "HET1", "full"),
)

# (kernel, depth, variant): every tile's context memory holds ``depth``
# words.  At HOM12 fir and dc_filter map and the rest overflow or do
# not map; HOM16 adds the points on the edge (sep_filter/basic maps,
# sep_filter/full and fft/full do not).  Left out to keep a pass near
# 6 s: fft@HOM12/full (~19 s, 18 failed attempts), the fir and
# dc_filter points at HOM16, which map as easily as at HOM12, and the
# HOM16 points that repeat an HOM12 outcome.
COLD_TIGHT = (
    ("fir", 12, "basic"), ("fir", 12, "full"),
    ("dc_filter", 12, "basic"), ("dc_filter", 12, "full"),
    ("convolution", 12, "basic"), ("convolution", 12, "full"),
    ("fft", 12, "basic"),
    ("sep_filter", 12, "basic"), ("sep_filter", 12, "full"),
    ("convolution", 16, "full"),
    ("fft", 16, "full"),
    ("sep_filter", 16, "basic"), ("sep_filter", 16, "full"),
)
#: Kernels that map at HOM12 under both flows.  The cold_tight quality
#: sums cover only these points, so a change that maps one more edge
#: point is not charged for its extra words.
COLD_TIGHT_ANCHORS = ("fir", "dc_filter")

SERVE_KERNELS = ("fir", "dc_filter")
SERVE_CONFIGS = ("HOM64", "HOM32", "HET1", "HET2")
SERVE_VARIANTS = ("basic", "acmap", "full")

#: Tiny configurations for the smoke test.
SMOKE = {
    "cold_paper": (("fir", "HET1", "full"), ("dc_filter", "HET1", "full")),
    "cold_tight": (("fir", 12, "full"), ("convolution", 12, "full")),
    "serve_warm": (("dc_filter",), ("HOM64",), ("basic", "full")),
}

WORKLOADS = ("cold_paper", "cold_tight", "serve_warm")

#: Seconds of ``--seconds`` that buy one cold pass.  A pass of either
#: cold workload takes 6-12 s on a 2-vCPU VM, by the host's phase.
PASS_SECONDS = 8.5


def _point(kernel, config, variant, seed, depth=None):
    """A JSON row the worker turns into a ``PointSpec``."""
    return {"kernel": kernel, "config": config, "variant": variant,
            "seed": seed,
            "cm_depths": [depth] * 16 if depth is not None else None}


def cold_points(workload, seed, smoke=False):
    """The cold workload's points in canonical order (not shuffled)."""
    if workload == "cold_paper":
        rows = SMOKE["cold_paper"] if smoke else COLD_PAPER
        return [_point(kernel, config, variant, seed)
                for kernel, config, variant in rows]
    rows = SMOKE["cold_tight"] if smoke else COLD_TIGHT
    return [_point(kernel, f"HOM{depth}", variant, seed, depth)
            for kernel, depth, variant in rows]


def in_quality_set(workload, row):
    """Whether a point's words/cycles/energy count in the sums."""
    if workload == "cold_tight":
        return row["kernel"] in COLD_TIGHT_ANCHORS
    return True


def must_map(workload, row):
    """A point that must map; a no-map there counts as a failure."""
    return workload == "cold_paper" or in_quality_set(workload, row)


def cold_passes(seconds):
    """How many cold passes ``seconds`` buys (at least two).

    Fixed by the argument alone, so every run of a workload takes the
    minimum over the same number of passes.
    """
    return max(2, math.ceil(seconds / PASS_SECONDS))


def shuffled(points, seed):
    """The points in an order set by ``seed``."""
    points = list(points)
    random.Random(seed).shuffle(points)
    return points


def serve_request(seed, smoke=False):
    """The sweep request every serve job sends (axes order by seed)."""
    kernels, configs, variants = (SMOKE["serve_warm"] if smoke else
                                  (SERVE_KERNELS, SERVE_CONFIGS,
                                   SERVE_VARIANTS))
    rng = random.Random(seed)
    axes = []
    for axis in (kernels, configs, variants):
        axis = list(axis)
        rng.shuffle(axis)
        axes.append(axis)
    return {"kernels": axes[0], "configs": axes[1], "variants": axes[2],
            "seed": seed}
