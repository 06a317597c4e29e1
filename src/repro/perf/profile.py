"""``repro profile`` — cProfile or flame-sample one ``map_kernel`` run.

Future perf work should start from data, not guesses: this wraps one
mapping in cProfile and prints the top functions by cumulative time,
which is exactly how the hot paths optimised in this repo (the route
search, the incremental context accounting) were found.
"""

from __future__ import annotations

import cProfile
import io
import pstats

from repro.arch.configs import get_config
from repro.errors import UnmappableError
from repro.kernels import get_kernel
from repro.mapping.flow import VARIANTS, map_kernel

from repro.perf.harness import BenchCase


def _mapper(case: BenchCase):
    """Build ``case`` once; returns the call both profilers wrap.

    The call maps the case and returns the result, or None when the
    case is unmappable.
    """
    case.validate()
    kernel = get_kernel(case.kernel)
    cgra = get_config(case.config)
    options = VARIANTS[case.variant]()

    def run():
        try:
            return map_kernel(kernel.cdfg, cgra, options)
        except UnmappableError:
            return None
    return run


def profile_case(case: BenchCase, top=20, sort="cumulative"):
    """Profile one mapping; returns (stats_text, result_or_None).

    ``sort`` is any pstats key (``cumulative``, ``tottime``, ...).
    """
    run = _mapper(case)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    header = (f"profile: {case.name} "
              f"({'mapped' if result is not None else 'unmappable'})")
    return header + "\n" + stream.getvalue(), result


def flame_case(case: BenchCase, hz, repeat=5, path=None):
    """Sample ``repeat`` mappings of one case; returns the profiler.

    A single mapping is milliseconds — too fast for a wall-clock
    sampler to see much — so the case is mapped ``repeat`` times
    under one profiler.  Unlike :func:`profile_case` the sampler adds
    no per-call overhead, so the repeats measure the real code.
    Sampling and the ``path`` output go through
    :func:`repro.obs.flame.capture`.
    """
    from repro.obs.flame import capture

    run = _mapper(case)
    with capture(path, hz) as profiler:
        for _ in range(max(1, repeat)):
            run()
    return profiler
