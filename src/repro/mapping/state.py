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

Performance note: the binder clones a partial mapping for every
placement candidate, so per-value event containers are stored as
immutable tuples/frozensets — ``clone()`` copies only the outer dicts
(pointer copies), and updates replace the small inner values.

All context accounting is incremental: ``occupy`` maintains per-tile
busy counts, PNOP counts, context words and the derived pruning
aggregates (total words, worst capacity pressure, per-depth overflow
counters) in O(1) per placed instruction, so ``cost()`` and the
ACMAP/ECMAP fitness checks never rescan the schedule.  Per-tile words
only ever grow while instructions are added (a new instruction adds
one word and changes the PNOP count by -1, 0 or +1), which is what
makes the running-maximum pressure exact; the rare whole-schedule
shifts (``stretch``/``compress``) rebuild the aggregates outright.
"""

from __future__ import annotations

from repro.errors import MappingError

#: Bits reserved for the cycle in encoded occupancy slots; schedules
#: stay far below 2**12 cycles (lengths grow geometrically from tens).
_CYCLE_BITS = 12
_CYCLE_MASK = (1 << _CYCLE_BITS) - 1

#: Occupancy delta-log length at which ``occupy`` folds the log into a
#: fresh base token (see ``occupancy_key``).
_OCC_FOLD = 32


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
        "_mov_chain",
        "n_movs",
        "blacklist",
        "_owned",
        "_occ_base",
        "_occ_delta",
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
        #: occupancy identity: pms sharing ``_occ_base`` hold exactly
        #: the base schedule plus their ``_occ_delta`` slots — the
        #: route memo keys on this instead of scanning the schedule
        self._occ_base = object()
        self._occ_delta = []
        #: value uid -> tuple of (tile, earliest readable cycle)
        self.rf_avail = {}
        #: value uid -> tuple of (tile, cycle) output-port events
        self.port_events = {}
        #: tile -> frozenset of constant values resident in its CRF
        self.const_tiles = {t: frozenset() for t in range(cgra.n_tiles)}
        #: symbols homed while mapping this block
        self.new_homes = {}
        #: (tile, cycle, value_uid) MOVs as a persistent parent-linked
        #: chain — clones share it by pointer; ``movs`` materialises it
        self._mov_chain = None
        self.n_movs = 0
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
        # first write after a clone (most candidates touch only a few
        # tiles, the clone itself is what the binder does ~100k times
        # per kernel).
        new.tile_cycles = dict(self.tile_cycles)
        new._owned = set()
        self._owned.clear()
        # Inner containers are immutable: shallow dict copies suffice.
        new.rf_avail = dict(self.rf_avail)
        new.port_events = dict(self.port_events)
        new.const_tiles = dict(self.const_tiles)
        new.new_homes = dict(self.new_homes)
        new._mov_chain = self._mov_chain
        new.n_movs = self.n_movs
        new.blacklist = self.blacklist
        new._occ_base = self._occ_base
        new._occ_delta = self._occ_delta.copy()
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
        if cycle in cycles:
            raise MappingError(
                f"slot ({tile},{cycle}) already holds {cycles[cycle]}")
        if cycle < 0:
            raise MappingError(f"negative cycle {cycle}")
        if cycle > _CYCLE_MASK:
            # The packed occupancy/routing state encodings reserve 12
            # bits for the cycle; schedules this long never map anyway
            # — fail loudly instead of silently aliasing slots.
            raise MappingError(
                f"cycle {cycle} exceeds the {_CYCLE_MASK}-cycle "
                f"schedule bound")
        if tile not in self._owned:
            cycles = dict(cycles)
            self.tile_cycles[tile] = cycles
            self._owned.add(tile)
        # Inlined exact-PNOP bookkeeping (one call frame per placed
        # instruction adds up to whole-percent map time).
        pnops = self._tile_pnops
        maximum = self._tile_max[tile]
        was_empty = maximum is None
        pnops_before = pnops[tile]
        minimum = self._tile_min[tile]
        if minimum is None or cycle < minimum:
            self._tile_min[tile] = cycle
        if was_empty:
            self._tile_max[tile] = cycle
            pnops[tile] = 1 if cycle > 0 else 0
        elif cycle > maximum:
            if cycle > maximum + 1:
                pnops[tile] += 1
            self._tile_max[tile] = cycle
        else:
            # Insertion strictly inside [0, maximum): the idle run
            # holding ``cycle`` shrinks, splits, or disappears.
            left_idle = cycle > 0 and (cycle - 1) not in cycles
            right_idle = (cycle + 1) not in cycles
            if left_idle and right_idle:
                pnops[tile] += 1
            elif not left_idle and not right_idle:
                pnops[tile] -= 1
        cycles[cycle] = descriptor
        if cycle >= self.length:
            self.length = cycle + 1
        # Occupancy identity: extend the delta log, or fold it into a
        # fresh base token once it grows past the constant bound.
        delta = self._occ_delta
        if len(delta) >= _OCC_FOLD:
            self._occ_base = object()
            delta.clear()
        else:
            delta.append((tile << _CYCLE_BITS) | cycle)
        # Context-word and pruning-aggregate maintenance.  The new
        # instruction adds one word; the PNOP delta is -1, 0 or +1, so
        # per-tile words never shrink and the running maximum pressure
        # stays exact.
        words = self._tile_words
        old = words[tile]
        new = old + 1 + pnops[tile] - pnops_before
        words[tile] = new
        self._total_words += new - old
        depth = self.cgra.cm_depths[tile]
        pressure = new / depth
        if pressure > self._worst_pressure:
            self._worst_pressure = pressure
        if old <= depth < new:
            self._n_over_exact += 1
        # The ACMAP estimate adds a one-word reserve on busy tiles: the
        # gap the next placement may open (Sec III-D.2's approximation
        # keeps some unfitting mappings and drops some fitting ones).
        approx_old = old if was_empty else old + 1
        if approx_old <= depth < new + 1:
            self._n_over_approx += 1

    def occupancy_key(self, horizon):
        """Hashable identity of the issue slots below ``horizon``.

        Two partial mappings with equal keys occupy exactly the same
        slots at cycles ``< horizon``: the shared base token pins the
        schedule at the last fold point and the delta log lists every
        slot taken since.  O(len(delta)) — the route memo's key cost.
        """
        return (self._occ_base,
                frozenset(slot for slot in self._occ_delta
                          if slot & _CYCLE_MASK < horizon))

    def place_op(self, uid, tile, cycle):
        self.occupy(tile, cycle, ("op", uid))
        self.placements[uid] = (tile, cycle)

    def add_mov(self, tile, cycle, value_uid):
        self.occupy(tile, cycle, ("mov", value_uid))
        self._mov_chain = (self._mov_chain, (tile, cycle, value_uid))
        self.n_movs += 1

    @property
    def movs(self):
        """The block's MOV instructions in insertion order."""
        out = []
        chain = self._mov_chain
        while chain is not None:
            chain, entry = chain
            out.append(entry)
        out.reverse()
        return out

    # ------------------------------------------------------------------
    # Value availability events
    # ------------------------------------------------------------------
    def add_rf_event(self, value_uid, tile, cycle):
        """Value readable by ``tile``'s instructions from ``cycle`` on."""
        events = self.rf_avail.get(value_uid, ())
        for index, (event_tile, event_cycle) in enumerate(events):
            if event_tile == tile:
                if cycle < event_cycle:
                    self.rf_avail[value_uid] = (
                        events[:index] + ((tile, cycle),)
                        + events[index + 1:])
                return
        self.rf_avail[value_uid] = events + ((tile, cycle),)

    def add_port_event(self, value_uid, tile, cycle):
        """Value on ``tile``'s output port during exactly ``cycle``."""
        events = self.port_events.get(value_uid, ())
        if (tile, cycle) not in events:
            self.port_events[value_uid] = events + ((tile, cycle),)

    def record_production(self, value_uid, tile, cycle):
        """An op/MOV at (tile, cycle) produced the value.

        Equivalent to ``add_rf_event`` + ``add_port_event`` at
        ``cycle + 1``, inlined with a fast path for the overwhelmingly
        common fresh value (no prior events).
        """
        after = cycle + 1
        events = self.rf_avail.get(value_uid)
        if events is None:
            self.rf_avail[value_uid] = ((tile, after),)
        else:
            self.add_rf_event(value_uid, tile, after)
        events = self.port_events.get(value_uid)
        if events is None:
            self.port_events[value_uid] = ((tile, after),)
        elif (tile, after) not in events:
            self.port_events[value_uid] = events + ((tile, after),)

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
    def tile_busy_count(self, tile):
        return len(self.tile_cycles[tile])

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

    # ------------------------------------------------------------------
    # Schedule stretching (re-route slack transformation)
    # ------------------------------------------------------------------
    def stretch(self, delta):
        """Shift every scheduled event ``delta`` cycles later.

        Block-entry availability (cycle-0 RF events: symbol variables
        at their home tiles) does not move — those values are present
        before the block starts.
        """
        if delta <= 0:
            raise MappingError("stretch delta must be positive")
        self.length += delta
        self.placements = {uid: (tile, cycle + delta)
                           for uid, (tile, cycle) in self.placements.items()}
        self.tile_cycles = {
            tile: {cycle + delta: desc for cycle, desc in cycles.items()}
            for tile, cycles in self.tile_cycles.items()
        }
        self._owned = set(self.tile_cycles)
        self._occ_base = object()
        self._occ_delta = []
        self.rf_avail = {
            uid: tuple((tile, cycle + delta if cycle > 0 else 0)
                       for tile, cycle in events)
            for uid, events in self.rf_avail.items()
        }
        self.port_events = {
            uid: tuple((tile, cycle + delta) for tile, cycle in events)
            for uid, events in self.port_events.items()
        }
        chain = None
        for tile, cycle, uid in self.movs:
            chain = (chain, (tile, cycle + delta, uid))
        self._mov_chain = chain
        # A uniform shift preserves every inter-instruction gap; only
        # tiles that started at cycle 0 gain a leading idle run (one
        # new PNOP).  The tracked min/max make this O(1) per tile.
        for tile, minimum in enumerate(self._tile_min):
            if minimum is None:
                continue
            if minimum == 0:
                self._tile_pnops[tile] += 1
                self._tile_words[tile] += 1
            self._tile_min[tile] = minimum + delta
            self._tile_max[tile] += delta
        self._init_aggregates()

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
            self._occ_base = object()
            self._occ_delta = []
            self.rf_avail = {
                uid: tuple((tile, cycle - shift if cycle > 0 else 0)
                           for tile, cycle in events)
                for uid, events in self.rf_avail.items()}
            self.port_events = {
                uid: tuple((tile, cycle - shift) for tile, cycle in events)
                for uid, events in self.port_events.items()}
            chain = None
            for tile, cycle, uid in self.movs:
                chain = (chain, (tile, cycle - shift, uid))
            self._mov_chain = chain
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
        """Lexicographic cost: coarse capacity pressure, MOVs, total.

        Tile pressure is normalised by context-memory depth and
        bucketed, so on heterogeneous configurations the exploration
        prefers keeping small-CM tiles lean before it optimises MOV
        count; within a pressure bucket, fewer MOVs win.
        """
        worst = self._worst_pressure
        return (int(worst * 8), self.n_movs, worst, self._total_words)

    def __repr__(self):
        return (f"PartialMapping({len(self.placements)} ops, "
                f"{self.n_movs} movs, L={self.length})")
