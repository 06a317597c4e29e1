"""Exact incremental binding (Sec III-B) with CAB awareness.

For each operation handed over by the backward list scheduler, the
binder enumerates *every* tile (and a bounded window of cycles) where
the operation can be legally placed in each live partial mapping:

- memory operations only on load-store tiles;
- the issue slot must be free;
- constants must fit the tile's constant register file;
- symbol-variable operands must be routable from their home register
  file (the *location constraints* — first touch fixes the home);
- the result must be routable to every already-placed consumer;
- memory-ordering successors bound earlier must stay strictly later.

Candidates on CAB-blacklisted tiles are skipped when the flow enables
constraint-aware binding.  The exactness of the per-operation
enumeration (nothing is skipped before the pruning stages) mirrors the
paper's exact sub-graph-match binding.

Enumeration builds nothing: each legal placement is a
:class:`Candidate` scored on its parent mapping, and only those the
pruning stages keep are materialised as clones.
"""

from __future__ import annotations

import dataclasses

from repro.ir import analysis, opcodes
from repro.mapping import routing
from repro.mapping.state import TrialOccupancy, produced, with_rf_event


class BindContext:
    """Per-block constant data shared by all binding calls."""

    def __init__(self, dfg, cgra, options):
        self.dfg = dfg
        self.cgra = cgra
        self.options = options
        self.asap = analysis.asap_levels(dfg)
        #: op uid -> ops consuming its result (routing targets)
        self.data_consumers = {
            op.uid: dfg.data_successors(op) for op in dfg.ops}
        #: op uid -> ops that must execute strictly later (memory order)
        self.order_successors = {op.uid: [] for op in dfg.ops}
        for op in dfg.ops:
            for earlier in op.order_after:
                self.order_successors[earlier.uid].append(op)
        #: data uid -> symbol name, for the location constraints
        self.symbol_of = {node.uid: symbol for symbol, node
                          in dfg.symbol_inputs.items()}
        #: hot-path copies of the options the binder reads per candidate
        self.cab = options.cab
        self.max_route_movs = options.max_route_movs
        #: op uid -> needs an LSU tile (precomputed opcode class)
        self.is_memory = {op.uid: opcodes.is_memory(op.opcode)
                          for op in dfg.ops}
        #: tile -> torus distance row (list index = other tile)
        self.dist_rows = [cgra.distance_row(tile)
                          for tile in range(cgra.n_tiles)]


def candidate_tiles(ctx, pm, op):
    """Tiles legal for this op under LSU and CAB constraints."""
    tiles = ctx.cgra.candidate_tiles(ctx.is_memory[op.uid])
    if ctx.cab and pm.blacklist:
        tiles = [t for t in tiles if t not in pm.blacklist]
    return tiles


@dataclasses.dataclass(slots=True, eq=False)
class Candidate:
    """A scored extension of a partial mapping, not yet built.

    ``score`` is what the pruning stages read; the rest is what
    :meth:`materialise` replays: new CRF constants, new ``(symbol,
    tile)`` homes, ``(uid, home, route)`` per symbol operand and the
    result's route to each placed consumer.
    """

    parent: object
    op: object
    tile: int
    cycle: int
    consts: list
    homes: list
    reads: list
    result_routes: list
    score: tuple

    def cost(self):
        return self.score[0]

    def fits_approx(self):
        return self.score[1]

    def fits_exact(self):
        return self.score[2]

    def materialise(self):
        """The candidate as a clone of its parent (no route search)."""
        pm = self.parent.clone()
        pm.place_op(self.op.uid, self.tile, self.cycle)
        for value in self.consts:
            pm.register_const(self.tile, value)
        for symbol, home in self.homes:
            pm.fix_home(symbol, home)
        for uid, home, route in self.reads:
            pm.add_rf_event(uid, home, 0)
            routing.commit_route(pm, uid, route)
        result = self.op.result
        if result is not None:
            pm.record_production(result.uid, self.tile, self.cycle)
            for route in self.result_routes:
                routing.commit_route(pm, result.uid, route)
        return pm


def try_bind(ctx, pm, op, tile, cycle):
    """Score placing ``op`` at ``(tile, cycle)`` on ``pm``.

    Returns a :class:`Candidate`, or None when a constant, a location
    constraint or a route cannot be met; an illegal slot raises as
    ``PartialMapping.occupy`` does.  ``pm`` is left as it was.
    """
    blacklist = pm.blacklist if ctx.cab else frozenset()
    max_movs = ctx.max_route_movs
    trial = TrialOccupancy(pm)
    try:
        trial.occupy(tile, cycle, ("op", op.uid))
        consts, homes, reads, result_routes = [], [], [], []
        crf = pm.const_tiles[tile]
        for operand in {o.uid: o for o in op.operands}.values():
            if operand.is_const:
                if operand.value not in crf:
                    if len(crf) >= ctx.cgra.tile(tile).crf_words:
                        return None
                    crf = crf | {operand.value}
                    consts.append(operand.value)
            elif operand.is_symbol:
                symbol = ctx.symbol_of[operand.uid]
                home = pm.home_of(symbol)
                if home is None:
                    # First touch: the location constraint is fixed here.
                    homes.append((symbol, tile))
                    home = tile
                rf_events, port_events = pm.events(operand.uid)
                events = (with_rf_event(rf_events, home, 0), port_events)
                route = routing.route_to_operand(
                    pm, operand.uid, tile, cycle, max_movs, blacklist,
                    events)
                if route is None and blacklist:
                    # The location constraint beats CAB's blacklist;
                    # ECMAP arbitrates whether the result still fits.
                    route = routing.route_to_operand(
                        pm, operand.uid, tile, cycle, max_movs,
                        events=events)
                if route is None:
                    return None
                trial.take_route(operand.uid, route, events)
                reads.append((operand.uid, home, route))
            # Op-result operands: their producers bind later (backward
            # order) and will route toward this placement.
        if op.result is not None:
            uid = op.result.uid
            events = produced(pm.events(uid), tile, cycle)
            for consumer in ctx.data_consumers[op.uid]:
                if (placement := pm.placements.get(consumer.uid)) is None:
                    continue
                route = routing.route_to_operand(
                    pm, uid, *placement, max_movs, blacklist, events)
                if route is None:
                    return None
                events = trial.take_route(uid, route, events)
                result_routes.append(route)
        return Candidate(pm, op, tile, cycle, consts, homes, reads,
                         result_routes, trial.score())
    finally:
        trial.withdraw()


def _least_used_tile(pm, blacklist):
    """Tile with the fewest context words (for fresh symbol homes)."""
    cgra = pm.cgra
    best_tile = None
    best_key = None
    for tile in range(cgra.n_tiles):
        if tile in blacklist:
            continue
        key = (pm.tile_context_words(tile, exact=True), tile)
        if best_key is None or key < best_key:
            best_key = key
            best_tile = tile
    return best_tile


def _first_free_cycle(pm, tile):
    """Earliest free issue slot on a tile (may extend the schedule)."""
    for cycle in range(pm.length):
        if pm.slot_free(tile, cycle):
            return cycle
    return pm.length


def _route_home(ctx, candidate, uid, target, blacklist):
    """Route a symbol value into its home RF.

    The schedule end is congested (backward scheduling anchors sinks
    there), so the landing deadline extends a few cycles past the
    block's last operation — the schedule grows as needed.  CAB's
    blacklist is advisory, the location constraint is not: if no route
    avoids the blacklisted tiles, retry without the blacklist and let
    ECMAP arbitrate whether the result still fits.
    """
    deadline = candidate.length + ctx.options.finalize_slack
    route = routing.route_to_rf(
        candidate, uid, target, deadline, ctx.max_route_movs, blacklist)
    if route is None and blacklist:
        route = routing.route_to_rf(
            candidate, uid, target, deadline, ctx.max_route_movs)
    return route


def finalize_symbols(ctx, pm):
    """Discharge the block's symbol-output location constraints.

    Every symbol written by the block must end up in its home tile's
    register file by the end of the schedule; unhomed symbols get
    homed here.  Returns the finalized clone, or None if a constraint
    cannot be met (the partial mapping dies).
    """
    blacklist = pm.blacklist if ctx.options.cab else frozenset()
    candidate = pm.clone()
    for symbol, node in ctx.dfg.symbol_outputs.items():
        if node.is_symbol:
            if not _finalize_passthrough(ctx, candidate, symbol, node,
                                         blacklist):
                return None
        elif node.is_const:
            if not _finalize_const(ctx, candidate, symbol, node, blacklist):
                return None
        else:
            if not _finalize_value(ctx, candidate, symbol, node, blacklist):
                return None
    if not _rf_pressure_ok(candidate):
        return None
    return candidate


def _finalize_passthrough(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned the entry value of a (possibly other) symbol."""
    source = ctx.symbol_of[node.uid]
    src_home = candidate.home_of(source)
    target = candidate.home_of(symbol)
    if src_home is None and target is None:
        tile = _least_used_tile(candidate, blacklist)
        if tile is None:
            return False
        candidate.fix_home(source, tile)
        if source != symbol:
            candidate.fix_home(symbol, tile)
        candidate.add_rf_event(node.uid, tile, 0)
        return True
    if src_home is None:
        candidate.fix_home(source, target)
        candidate.add_rf_event(node.uid, target, 0)
        return True
    candidate.add_rf_event(node.uid, src_home, 0)
    if target is None:
        candidate.fix_home(symbol, src_home)
        return True
    if target == src_home:
        return True
    route = _route_home(ctx, candidate, node.uid, target, blacklist)
    if route is None:
        return False
    routing.commit_route(candidate, node.uid, route)
    return True


def _finalize_const(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned a constant: one MOV from the CRF at its home."""
    target = candidate.home_of(symbol)
    if target is None:
        target = _least_used_tile(candidate, blacklist)
        if target is None:
            return False
        candidate.fix_home(symbol, target)
    if not candidate.register_const(target, node.value):
        return False
    cycle = _first_free_cycle(candidate, target)
    candidate.add_mov(target, cycle, node.uid)
    candidate.record_production(node.uid, target, cycle)
    return True


def _finalize_value(ctx, candidate, symbol, node, blacklist):
    """Symbol assigned an op result: route it home (or home it here)."""
    placement = candidate.placements.get(node.producer.uid)
    if placement is None:
        return False
    target = candidate.home_of(symbol)
    if target is None:
        candidate.fix_home(symbol, placement[0])
        return True
    route = _route_home(ctx, candidate, node.uid, target, blacklist)
    if route is None:
        return False
    routing.commit_route(candidate, node.uid, route)
    return True


def _rf_pressure_ok(candidate):
    """Every tile's live values must fit its regular register file."""
    per_tile = [0] * candidate.cgra.n_tiles
    for events in candidate.rf_avail.values():
        for tile, _ in events:
            per_tile[tile] += 1
    return all(per_tile[t] <= candidate.cgra.tile(t).rrf_words
               for t in range(candidate.cgra.n_tiles))


def bind_candidates(ctx, pm, op, full_window=False):
    """Scored extensions of ``pm`` placing ``op`` (one best cycle per tile).

    Cycles are scanned latest-first within ``options.cycle_window`` so
    schedules stay tight; the earliest legal cycle is the op's ASAP
    level (its dependence depth needs that many earlier cycles).
    ``full_window`` widens the scan to the whole legal range — the
    flow's fallback before declaring a binding failure.
    """
    results = []
    earliest = ctx.asap[op.uid]
    # The consumer/successor placements bounding the cycle scan are
    # per-(pm, op): look them up once, not once per tile.
    placements_get = pm.placements.get
    consumer_places = [p for consumer in ctx.data_consumers[op.uid]
                       if (p := placements_get(consumer.uid)) is not None]
    order_bound = pm.length - 1
    for successor in ctx.order_successors[op.uid]:
        placement = placements_get(successor.uid)
        if placement is not None and placement[1] - 1 < order_bound:
            order_bound = placement[1] - 1
    dist_rows = ctx.dist_rows
    for tile in candidate_tiles(ctx, pm, op):
        row = dist_rows[tile]
        latest = order_bound
        for c_tile, c_cycle in consumer_places:
            distance = row[c_tile]
            bound = c_cycle - (distance if distance > 1 else 1)
            if bound < latest:
                latest = bound
        if latest < earliest:
            continue
        if full_window:
            window_floor = earliest
        else:
            window_floor = max(earliest,
                               latest - ctx.options.cycle_window + 1)
        occupied = pm.tile_cycles[tile]
        for cycle in range(latest, window_floor - 1, -1):
            if cycle in occupied:
                continue
            candidate = try_bind(ctx, pm, op, tile, cycle)
            if candidate is not None:
                results.append(candidate)
                break
    return results
