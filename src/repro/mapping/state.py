"""Partial-mapping state.

A :class:`PartialMapping` is one point of the design space the binder
explores for the current basic block: operation placements, MOV
insertions, value availability events, per-tile context occupancy.
The paper's flow keeps a *set* of these alive, prunes it (stochastic /
ACMAP / ECMAP), and extends each by binding the next operation.

Cross-block state — instructions already committed to each tile's
context memory and the symbol-variable home tiles (location
constraints) — lives in the immutable :class:`CommittedState`.

Context-word accounting follows the PE contract (DESIGN.md Sec 5):
per block, a tile stores its operations and MOVs plus one PNOP per
idle gap *before or between* them; trailing idle cycles and blocks in
which the tile never wakes up cost nothing (the tile sleeps until the
global block-end broadcast).

Performance note: the binder scores each placement candidate on its
parent (:class:`TrialOccupancy` lends it the candidate's slots) and
clones only the prune survivors.  Per-value event containers are
immutable tuples/frozensets, so the scorer keeps its events in local
tuples and ``clone()`` copies only the outer containers.

All context accounting is incremental: ``occupy`` maintains per-tile
busy counts, PNOP counts, context words and the derived pruning
aggregates (total words, worst capacity pressure, per-depth overflow
counters) in O(1) per placed instruction, so ``cost()`` and the
ACMAP/ECMAP fitness checks never rescan the schedule.  Per-tile words
only ever grow while instructions are added (a new instruction adds
one word and changes the PNOP count by -1, 0 or +1), which is what
makes the running-maximum pressure exact and lets a scored candidate
derive them from its final per-tile words alone.  ``compress``, the
one whole-schedule shift, rebuilds the aggregates outright.
"""

from __future__ import annotations

from repro.errors import MappingError

#: Bits reserved for the cycle in the router's packed states;
#: schedules stay far below 2**12 cycles (lengths grow geometrically
#: from tens).
_CYCLE_BITS = 12
_CYCLE_MASK = (1 << _CYCLE_BITS) - 1


class CommittedState:
    """Immutable cross-block mapping state."""

    __slots__ = ("cgra", "tile_instrs", "symbol_homes")

    def __init__(self, cgra, tile_instrs=None, symbol_homes=None):
        self.cgra = cgra
        self.tile_instrs = (tuple(tile_instrs) if tile_instrs is not None
                            else (0,) * cgra.n_tiles)
        self.symbol_homes = dict(symbol_homes or {})

    def extend(self, block_usage, new_homes):
        """New state with a block's per-tile usage and homes folded in."""
        instrs = list(self.tile_instrs)
        for tile, used in enumerate(block_usage):
            instrs[tile] += used
        homes = dict(self.symbol_homes)
        for symbol, tile in new_homes.items():
            if symbol in homes and homes[symbol] != tile:
                raise MappingError(
                    f"symbol {symbol!r} re-homed from {homes[symbol]} "
                    f"to {tile}")
            homes[symbol] = tile
        return CommittedState(self.cgra, instrs, homes)

    def home_of(self, symbol):
        return self.symbol_homes.get(symbol)

    def __repr__(self):
        return (f"CommittedState(instrs={list(self.tile_instrs)}, "
                f"homes={self.symbol_homes})")


def pnop_blocks(occupied_cycles):
    """Exact number of PNOP instructions for a set of busy cycles.

    One PNOP per maximal idle run before or between instructions;
    trailing idle is free (the tile waits for the block-end broadcast).

    Reference implementation: the mapper itself tracks PNOPs
    incrementally (``PartialMapping.occupy``) and never sorts; this
    stays as the executable definition the tests check against.
    """
    if not occupied_cycles:
        return 0
    busy = sorted(occupied_cycles)
    pnops = 1 if busy[0] > 0 else 0
    for previous, current in zip(busy, busy[1:]):
        if current > previous + 1:
            pnops += 1
    return pnops


def check_slot(cycles, tile, cycle):
    """Raise unless ``cycle`` is a legal free slot in a tile's ``cycles``."""
    if cycle in cycles:
        raise MappingError(
            f"slot ({tile},{cycle}) already holds {cycles[cycle]}")
    if cycle < 0:
        raise MappingError(f"negative cycle {cycle}")
    if cycle > _CYCLE_MASK:  # would alias the router's packed states
        raise MappingError(
            f"cycle {cycle} exceeds the {_CYCLE_MASK}-cycle "
            f"schedule bound")


def pnops_after(cycles, maximum, pnops, cycle):
    """A tile's PNOP count after a new instruction at ``cycle``, given
    its busy ``cycles``, their ``maximum`` (None if idle) and ``pnops``."""
    if maximum is None:
        return 1 if cycle > 0 else 0
    if cycle > maximum:
        return pnops + 1 if cycle > maximum + 1 else pnops
    # Insertion strictly inside [0, maximum): the idle run holding
    # ``cycle`` shrinks, splits, or disappears.
    left_idle = cycle > 0 and (cycle - 1) not in cycles
    right_idle = (cycle + 1) not in cycles
    if left_idle and right_idle:
        return pnops + 1
    if not left_idle and not right_idle:
        return pnops - 1
    return pnops


def with_rf_event(events, tile, cycle):
    """``events`` plus "readable in ``tile``'s RF from ``cycle``"."""
    for index, (event_tile, event_cycle) in enumerate(events):
        if event_tile == tile:
            if cycle < event_cycle:
                return (events[:index] + ((tile, cycle),)
                        + events[index + 1:])
            return events
    return events + ((tile, cycle),)


def with_port_event(events, tile, cycle):
    """``events`` plus "on ``tile``'s output port during ``cycle``"."""
    if (tile, cycle) in events:
        return events
    return events + ((tile, cycle),)


def produced(events, tile, cycle):
    """``(rf_events, port_events)`` once an instruction at ``(tile,
    cycle)`` produced the value: readable in the tile's RF and on its
    output port from ``cycle + 1``."""
    rf_events, port_events = events
    return (with_rf_event(rf_events, tile, cycle + 1),
            with_port_event(port_events, tile, cycle + 1))


def cost_of(worst_pressure, n_movs, total_words):
    """Lexicographic cost: coarse capacity pressure, MOVs, total.

    Tile pressure is normalised by context-memory depth and bucketed,
    so on heterogeneous configurations the exploration prefers keeping
    small-CM tiles lean before it optimises MOV count; within a
    pressure bucket, fewer MOVs win.
    """
    return (int(worst_pressure * 8), n_movs, worst_pressure, total_words)


def pnop_upper_bound(n_busy, max_cycle):
    """Cheap pessimistic bound on PNOPs (the ACMAP estimate).

    With ``n_busy`` instructions whose last one sits at ``max_cycle``,
    there can be at most one gap per instruction and no more gaps than
    idle cycles in the window ``[0, max_cycle]``.
    """
    if n_busy == 0:
        return 0
    idle = max_cycle + 1 - n_busy
    return min(n_busy, idle)


class PartialMapping:
    """One explored mapping of (a prefix of) a basic block."""

    __slots__ = (
        "cgra",
        "committed",
        "length",
        "placements",
        "tile_cycles",
        "rf_avail",
        "port_events",
        "const_tiles",
        "new_homes",
        "movs",
        "blacklist",
        "_owned",
        "_tile_max",
        "_tile_min",
        "_tile_pnops",
        "_tile_words",
        "_total_words",
        "_worst_pressure",
        "_n_over_exact",
        "_n_over_approx",
    )

    def __init__(self, cgra, committed, length):
        self.cgra = cgra
        self.committed = committed
        self.length = length
        #: op uid -> (tile, cycle)
        self.placements = {}
        #: tile -> {cycle: descriptor}; descriptor = ("op", uid) or
        #: ("mov", value_uid)
        self.tile_cycles = {t: {} for t in range(cgra.n_tiles)}
        #: tiles whose cycle dict is private to this instance (the
        #: copy-on-write set — see ``clone``)
        self._owned = set(self.tile_cycles)
        #: value uid -> tuple of (tile, earliest readable cycle)
        self.rf_avail = {}
        #: value uid -> tuple of (tile, cycle) output-port events
        self.port_events = {}
        #: tile -> frozenset of constant values resident in its CRF
        self.const_tiles = {t: frozenset() for t in range(cgra.n_tiles)}
        #: symbols homed while mapping this block
        self.new_homes = {}
        #: (tile, cycle, value_uid) MOVs in insertion order
        self.movs = []
        #: tiles CAB excludes from further binding (aware flow only)
        self.blacklist = frozenset()
        #: incremental PNOP accounting (kept exact by ``occupy``)
        self._tile_max = [None] * cgra.n_tiles
        self._tile_min = [None] * cgra.n_tiles
        self._tile_pnops = [0] * cgra.n_tiles
        #: incremental context words (committed + busy + PNOPs) and
        #: the aggregates the pruning stages read
        self._tile_words = list(committed.tile_instrs)
        self._init_aggregates()

    def _init_aggregates(self):
        """Derive total/worst/overflow aggregates from ``_tile_words``."""
        depths = self.cgra.cm_depths
        words = self._tile_words
        self._total_words = sum(words)
        worst = 0.0
        n_over_exact = 0
        n_over_approx = 0
        tile_cycles = self.tile_cycles
        for tile, depth in enumerate(depths):
            exact = words[tile]
            pressure = exact / depth
            if pressure > worst:
                worst = pressure
            if exact > depth:
                n_over_exact += 1
            approx = exact + 1 if tile_cycles[tile] else exact
            if approx > depth:
                n_over_approx += 1
        self._worst_pressure = worst
        self._n_over_exact = n_over_exact
        self._n_over_approx = n_over_approx

    # ------------------------------------------------------------------
    # Copy-on-extend
    # ------------------------------------------------------------------
    def clone(self):
        new = PartialMapping.__new__(PartialMapping)
        new.cgra = self.cgra
        new.committed = self.committed
        new.length = self.length
        new.placements = dict(self.placements)
        # Per-tile cycle dicts are shared copy-on-write: only the
        # outer dict is copied, and both sides give up in-place
        # mutation rights — ``occupy`` re-copies a tile's dict on the
        # first write after a clone (a materialised candidate touches
        # only a few tiles).
        new.tile_cycles = dict(self.tile_cycles)
        new._owned = set()
        self._owned.clear()
        # Inner containers are immutable: shallow dict copies suffice.
        new.rf_avail = dict(self.rf_avail)
        new.port_events = dict(self.port_events)
        new.const_tiles = dict(self.const_tiles)
        new.new_homes = dict(self.new_homes)
        new.movs = list(self.movs)
        new.blacklist = self.blacklist
        new._tile_max = list(self._tile_max)
        new._tile_min = list(self._tile_min)
        new._tile_pnops = list(self._tile_pnops)
        new._tile_words = list(self._tile_words)
        new._total_words = self._total_words
        new._worst_pressure = self._worst_pressure
        new._n_over_exact = self._n_over_exact
        new._n_over_approx = self._n_over_approx
        return new

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def slot_free(self, tile, cycle):
        return cycle not in self.tile_cycles[tile]

    def occupy(self, tile, cycle, descriptor):
        cycles = self.tile_cycles[tile]
        check_slot(cycles, tile, cycle)
        if tile not in self._owned:
            cycles = dict(cycles)
            self.tile_cycles[tile] = cycles
            self._owned.add(tile)
        maximum = self._tile_max[tile]
        pnops_before = self._tile_pnops[tile]
        pnops = pnops_after(cycles, maximum, pnops_before, cycle)
        words = self._tile_words[tile] + 1 + pnops - pnops_before
        (self._worst_pressure, self._total_words, self._n_over_exact,
         self._n_over_approx) = self._aggregates_with({tile: words})
        if maximum is None or cycle > maximum:
            self._tile_max[tile] = cycle
        minimum = self._tile_min[tile]
        if minimum is None or cycle < minimum:
            self._tile_min[tile] = cycle
        self._tile_pnops[tile] = pnops
        self._tile_words[tile] = words
        cycles[cycle] = descriptor
        if cycle >= self.length:
            self.length = cycle + 1

    def _aggregates_with(self, tile_words):
        """Worst pressure, total words and exact/ACMAP overflow counts
        once each tile in ``tile_words`` holds that many words.

        Words never shrink (see the module docstring), so the running
        aggregates follow from each tile's end state.  The ACMAP
        estimate adds a one-word reserve on busy tiles: the gap the
        next placement may open (Sec III-D.2's approximation keeps
        some unfitting mappings and drops some fitting ones).
        """
        worst = self._worst_pressure
        total = self._total_words
        n_over_exact = self._n_over_exact
        n_over_approx = self._n_over_approx
        for tile, new in tile_words.items():
            old = self._tile_words[tile]
            depth = self.cgra.cm_depths[tile]
            total += new - old
            worst = max(worst, new / depth)
            if old <= depth < new:
                n_over_exact += 1
            approx_old = old if self._tile_max[tile] is None else old + 1
            if approx_old <= depth < new + 1:
                n_over_approx += 1
        return worst, total, n_over_exact, n_over_approx

    def place_op(self, uid, tile, cycle):
        self.occupy(tile, cycle, ("op", uid))
        self.placements[uid] = (tile, cycle)

    def add_mov(self, tile, cycle, value_uid):
        self.occupy(tile, cycle, ("mov", value_uid))
        self.movs.append((tile, cycle, value_uid))

    @property
    def n_movs(self):
        return len(self.movs)

    # ------------------------------------------------------------------
    # Value availability events
    # ------------------------------------------------------------------
    def add_rf_event(self, value_uid, tile, cycle):
        """Value readable by ``tile``'s instructions from ``cycle`` on."""
        self.rf_avail[value_uid] = with_rf_event(
            self.rf_avail.get(value_uid, ()), tile, cycle)

    def add_port_event(self, value_uid, tile, cycle):
        """Value on ``tile``'s output port during exactly ``cycle``."""
        self.port_events[value_uid] = with_port_event(
            self.port_events.get(value_uid, ()), tile, cycle)

    def record_production(self, value_uid, tile, cycle):
        """An op/MOV at (tile, cycle) produced the value."""
        (self.rf_avail[value_uid],
         self.port_events[value_uid]) = produced(
            self.events(value_uid), tile, cycle)

    def events(self, value_uid):
        """The value's ``(rf_events, port_events)`` tuples."""
        return (self.rf_avail.get(value_uid, ()),
                self.port_events.get(value_uid, ()))

    def rf_cycle(self, value_uid, tile):
        """Earliest RF-read cycle of the value on a tile (None if absent)."""
        for event_tile, event_cycle in self.rf_avail.get(value_uid, ()):
            if event_tile == tile:
                return event_cycle
        return None

    def readable_at(self, value_uid, tile, cycle):
        """Can an instruction on ``tile`` at ``cycle`` read the value?"""
        rf = self.rf_cycle(value_uid, tile)
        if rf is not None and rf <= cycle:
            return True
        events = self.port_events.get(value_uid)
        if events:
            neighbors = self.cgra.neighbor_table[tile]
            for event_tile, event_cycle in events:
                if event_cycle == cycle and event_tile in neighbors:
                    return True
        return False

    # ------------------------------------------------------------------
    # Constants (CRF)
    # ------------------------------------------------------------------
    def register_const(self, tile, value):
        """Ensure a constant is CRF-resident; False if the CRF is full."""
        crf = self.const_tiles[tile]
        if value in crf:
            return True
        if len(crf) >= self.cgra.tile(tile).crf_words:
            return False
        self.const_tiles[tile] = crf | {value}
        return True

    # ------------------------------------------------------------------
    # Context-memory accounting
    # ------------------------------------------------------------------
    def exact_pnops(self, tile):
        """Exact PNOP count (maintained incrementally by ``occupy``)."""
        return self._tile_pnops[tile]

    def tile_context_words(self, tile, exact=True):
        """CM words this block needs on ``tile`` so far (+ committed)."""
        words = self._tile_words[tile]
        if exact or not self.tile_cycles[tile]:
            return words
        return words + 1

    def fits_exact(self):
        """True when every tile's exact words fit its context memory."""
        return self._n_over_exact == 0

    def fits_approx(self):
        """True under ACMAP's pessimistic per-tile estimate."""
        return self._n_over_approx == 0

    def block_usage(self):
        """Per-tile CM words used by this block alone (exact PNOPs)."""
        committed = self.committed.tile_instrs
        return [self._tile_words[t] - committed[t]
                for t in range(self.cgra.n_tiles)]

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------
    def home_of(self, symbol):
        home = self.new_homes.get(symbol)
        if home is None:
            home = self.committed.home_of(symbol)
        return home

    def fix_home(self, symbol, tile):
        existing = self.home_of(symbol)
        if existing is not None and existing != tile:
            raise MappingError(
                f"symbol {symbol!r} already homed on tile {existing}")
        if existing is None:
            self.new_homes[symbol] = tile

    def compress(self):
        """Trim leading and trailing idle cycles off the schedule.

        Backward scheduling anchors sinks near the allocated length,
        which can leave fully-idle cycles at the start (latency and
        leading-PNOP waste) or after the last instruction.  A uniform
        shift preserves every timing relation; block-entry events
        (cycle 0) stay put and remain valid since they only get read
        later.
        """
        occupied = [cycle for cycles in self.tile_cycles.values()
                    for cycle in cycles]
        if not occupied:
            self.length = 1
            return
        shift = min(occupied)
        if shift > 0:
            self.placements = {
                uid: (tile, cycle - shift)
                for uid, (tile, cycle) in self.placements.items()}
            self.tile_cycles = {
                tile: {cycle - shift: desc
                       for cycle, desc in cycles.items()}
                for tile, cycles in self.tile_cycles.items()}
            self._owned = set(self.tile_cycles)
            self.rf_avail = {
                uid: tuple((tile, cycle - shift if cycle > 0 else 0)
                           for tile, cycle in events)
                for uid, events in self.rf_avail.items()}
            self.port_events = {
                uid: tuple((tile, cycle - shift) for tile, cycle in events)
                for uid, events in self.port_events.items()}
            self.movs = [(tile, cycle - shift, uid)
                         for tile, cycle, uid in self.movs]
            # The shift closes each tile's leading idle run by
            # ``shift`` cycles; the PNOP disappears only on tiles
            # whose first instruction lands exactly on cycle 0.
            for tile, minimum in enumerate(self._tile_min):
                if minimum is None:
                    continue
                if minimum > 0 and minimum - shift == 0:
                    self._tile_pnops[tile] -= 1
                    self._tile_words[tile] -= 1
                self._tile_min[tile] = minimum - shift
                self._tile_max[tile] -= shift
            self._init_aggregates()
        self.length = max(occupied) - shift + 1

    # ------------------------------------------------------------------
    # Cost (pruning / final selection)
    # ------------------------------------------------------------------
    def cost(self):
        return cost_of(self._worst_pressure, self.n_movs, self._total_words)

    def __repr__(self):
        return (f"PartialMapping({len(self.placements)} ops, "
                f"{self.n_movs} movs, L={self.length})")


class TrialOccupancy:
    """Slots lent to a partial mapping for one scoring pass.

    ``occupy`` checks and counts as :meth:`PartialMapping.occupy` does,
    writing into the mapping's own (maybe sibling-shared) cycle dicts so
    route searches see the slots busy; ``withdraw`` removes them all.
    Binding runs on one thread, so no sibling ever observes them.
    """

    __slots__ = ("pm", "taken", "tiles", "n_movs")

    def __init__(self, pm):
        self.pm = pm
        #: (cycle dict, cycle) of every lent slot
        self.taken = []
        #: tile -> (latest busy cycle, PNOPs, context words) so far
        self.tiles = {}
        self.n_movs = 0

    def occupy(self, tile, cycle, descriptor):
        pm = self.pm
        cycles = pm.tile_cycles[tile]
        check_slot(cycles, tile, cycle)
        maximum, pnops, words = self.tiles.get(tile) or (
            pm._tile_max[tile], pm._tile_pnops[tile], pm._tile_words[tile])
        new_pnops = pnops_after(cycles, maximum, pnops, cycle)
        if maximum is None or cycle > maximum:
            maximum = cycle
        self.tiles[tile] = (maximum, new_pnops,
                            words + 1 + new_pnops - pnops)
        cycles[cycle] = descriptor
        self.taken.append((cycles, cycle))

    def take_route(self, value_uid, route, events):
        """Lend a route's MOV slots; the value's events after it."""
        for tile, cycle in route.movs:
            self.occupy(tile, cycle, ("mov", value_uid))
            events = produced(events, tile, cycle)
        self.n_movs += len(route.movs)
        return events

    def withdraw(self):
        for cycles, cycle in self.taken:
            del cycles[cycle]
        self.taken.clear()

    def score(self):
        """``(cost(), fits_approx(), fits_exact())`` with the lent slots."""
        pm = self.pm
        worst, total, n_over_exact, n_over_approx = pm._aggregates_with(
            {tile: state[2] for tile, state in self.tiles.items()})
        return (cost_of(worst, pm.n_movs + self.n_movs, total),
                n_over_approx == 0, n_over_exact == 0)
