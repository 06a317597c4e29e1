"""The binder scores candidates on their parent and builds only survivors.

``try_bind`` must be an exact stand-in for the clone-and-commit binding
it replaces: a candidate's scored ``cost()``/``fits_*()`` equal those
of the mapping :meth:`Candidate.materialise` builds, scoring leaves the
parent untouched, and an illegal slot fails as ``occupy`` does.
"""

import pytest

from repro.arch.configs import get_config
from repro.errors import MappingError
from repro.kernels import get_kernel
from repro.mapping import flow, routing
from repro.mapping.binder import BindContext, bind_candidates, try_bind
from repro.mapping.scheduler import backward_order
from repro.mapping.state import _CYCLE_MASK, CommittedState, PartialMapping

CASES = [(kernel, config, variant)
         for kernel in ("fir", "dc_filter")
         for config, variant in (("HET1", "full"), ("HOM32", "basic"))]


def _state(pm):
    """Everything scoring could disturb on the parent mapping."""
    return {
        "tile_cycles": {tile: dict(cycles)
                        for tile, cycles in pm.tile_cycles.items()},
        "rf_avail": dict(pm.rf_avail),
        "port_events": dict(pm.port_events),
        "const_tiles": dict(pm.const_tiles),
        "new_homes": dict(pm.new_homes),
        "placements": dict(pm.placements),
        "tile_words": list(pm._tile_words),
        "tile_pnops": list(pm._tile_pnops),
        "tile_max": list(pm._tile_max),
        "length": pm.length,
        "n_movs": pm.n_movs,
        "cost": pm.cost(),
    }


@pytest.mark.parametrize("kernel,config,variant", CASES,
                         ids=["/".join(case) for case in CASES])
def test_scored_candidates_are_exact(monkeypatch, kernel, config,
                                     variant):
    seen = {"calls": 0, "candidates": 0}

    def checked_bind_candidates(ctx, pm, op, full_window=False):
        before = _state(pm)
        candidates = bind_candidates(ctx, pm, op, full_window)
        assert _state(pm) == before, "scoring changed the parent"
        for candidate in candidates:
            built = candidate.materialise()
            assert built.cost() == candidate.cost()
            assert built.fits_approx() == candidate.fits_approx()
            assert built.fits_exact() == candidate.fits_exact()
            assert built.placements[op.uid] == (candidate.tile,
                                                candidate.cycle)
        assert _state(pm) == before, "materialising changed the parent"
        seen["calls"] += 1
        seen["candidates"] += len(candidates)
        return candidates

    monkeypatch.setattr(flow, "bind_candidates", checked_bind_candidates)
    flow.map_kernel(get_kernel(kernel).cdfg, get_config(config),
                    flow.VARIANTS[variant]())
    assert seen["calls"] > 0
    assert seen["candidates"] > seen["calls"]


@pytest.fixture
def bound():
    """The first two ops of fir's loop body, the first one materialised."""
    cgra = get_config("HOM32")
    dfg = get_kernel("fir").cdfg.block("n_body2").dfg
    ctx = BindContext(dfg, cgra, flow.FlowOptions.basic())
    first, second = backward_order(dfg)[:2]
    initial = PartialMapping(cgra, CommittedState(cgra), 12)
    pm = bind_candidates(ctx, initial, first)[0].materialise()
    return ctx, pm, first, second


def _occupy_error(pm, tile, cycle):
    with pytest.raises(MappingError) as error:
        pm.clone().occupy(tile, cycle, ("op", -1))
    return str(error.value)


@pytest.mark.parametrize("slot", ["occupied", "beyond_mask", "negative"])
def test_illegal_slot_fails_as_occupy_does(bound, slot):
    ctx, pm, first, second = bound
    tile, cycle = pm.placements[first.uid]
    if slot == "beyond_mask":
        cycle = _CYCLE_MASK + 1
    elif slot == "negative":
        cycle = -1
    before = _state(pm)
    with pytest.raises(MappingError) as error:
        try_bind(ctx, pm, second, tile, cycle)
    assert str(error.value) == _occupy_error(pm, tile, cycle)
    assert _state(pm) == before


def test_materialise_replays_without_routing(bound, monkeypatch):
    ctx, pm, first, second = bound
    candidates = bind_candidates(ctx, pm, second)
    assert candidates

    def no_search(*args, **kwargs):
        raise AssertionError("materialise searched a route")

    monkeypatch.setattr(routing, "route_to_operand", no_search)
    monkeypatch.setattr(routing, "route_to_rf", no_search)
    for candidate in candidates:
        built = candidate.materialise()
        routes = candidate.result_routes + [
            route for _, _, route in candidate.reads]
        assert built.n_movs == pm.n_movs + sum(
            len(route.movs) for route in routes)
