"""Time-extended directed graph (TEDG) of the target CGRA.

Sec III-A of the paper: the TEDG ``T = (V, E)`` has a node ``(r, t)``
per resource ``r in FU union RF`` and cycle ``t``; an edge connects
``(r1, t)`` to ``(r2, t+1)`` when the value held by ``r1`` at cycle
``t`` can appear in ``r2`` at ``t+1``.

We never materialise the product graph; :class:`TEDG` answers the edge
queries the routing search needs, derived from the PE contract
(DESIGN.md Sec 5):

- ``FU(P, t) -> RF(P, t+1)``      — writeback of a result;
- ``FU(P, t) -> FU(Q, t+1)``      — output-port forwarding to a torus
  neighbour ``Q`` (valid only at exactly ``t+1``);
- ``RF(P, t) -> RF(P, t+1)``      — a value rests in the register file;
- ``RF(P, t) -> FU(P, t)``        — an instruction reads its own RF.

A MOV instruction is a FU occupation that copies a value along these
edges; the mapping problem is finding an edge-preserving map from the
DFG into this graph (``f`` in the paper's formulation).
"""

from __future__ import annotations


class TEDG:
    """Edge oracle of the time-extended graph for one CGRA."""

    def __init__(self, cgra):
        self.cgra = cgra

    # ------------------------------------------------------------------
    # Edge queries used by the routing search
    # ------------------------------------------------------------------
    def port_consumers(self, tile):
        """Tiles able to read ``tile``'s output port the next cycle."""
        return self.cgra.neighbors(tile)

    def fu_nodes(self, cycle):
        """All FU nodes of one time slice (for introspection/tests)."""
        return [(("FU", tile), cycle) for tile in range(self.cgra.n_tiles)]

    def rf_nodes(self, cycle):
        """All RF nodes of one time slice."""
        return [(("RF", tile), cycle) for tile in range(self.cgra.n_tiles)]

    def edges_from_fu(self, tile, cycle):
        """Explicit TEDG edges out of ``FU(tile)`` at ``cycle``.

        Used by tests and documentation tooling; the routing search
        uses the faster dedicated queries above.
        """
        edges = [((("FU", tile), cycle), (("RF", tile), cycle + 1))]
        for neighbor in self.port_consumers(tile):
            edges.append(
                ((("FU", tile), cycle), (("FU", neighbor), cycle + 1)))
        return edges

    def edges_from_rf(self, tile, cycle):
        """Explicit TEDG edges out of ``RF(tile)`` at ``cycle``."""
        return [
            ((("RF", tile), cycle), (("RF", tile), cycle + 1)),
            ((("RF", tile), cycle), (("FU", tile), cycle)),
        ]

    def __repr__(self):
        return f"TEDG({self.cgra.name})"
