"""Golden mapping-equivalence snapshots (every kernel x variant).

``mappings.json`` pins the *mapping-level* outcome of every kernel x
flow-variant pair on HOM32: per-block schedule lengths, per-block
per-tile context usage, total context words per tile, MOV and PNOP
counts, and a ``placement_digest`` over every block's placements,
MOVs (in order), new symbol homes and attempt count.  The mapper's
hot-path optimisations (incremental context accounting, bounded route
search, scoring binding candidates on their parent and cloning only
the prune survivors — see ``repro.mapping.state``/``routing``/
``binder``) are required to be *bit-exact* rewrites: any drift here,
down to one swapped placement, means an optimisation changed a
mapping decision, which would silently move the paper's reproduced
figures.

``points.json`` (test_golden_points) covers the downstream pipeline
(cycles, energy) on a representative slice; this file covers the whole
kernel x variant grid at the mapping layer, where the optimised code
lives.

Regenerate after an *intended* mapper change::

    PYTHONPATH=src python tests/golden/test_golden_mappings.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.arch.configs import get_config
from repro.kernels import get_kernel
from repro.mapping.flow import VARIANTS, map_kernel

GOLDEN_PATH = pathlib.Path(__file__).parent / "mappings.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

CONFIG = GOLDEN["config"]

#: Kernels whose full-variant map dominates suite time; their cases
#: run in the slow lane so the fast lane stays fast.
_HEAVY = {"matmul", "nonsep_filter", "fft"}


def mapping_snapshot(result):
    """The equivalence fingerprint one entry pins."""
    return {
        "block_order": list(result.block_order),
        "block_lengths": {name: result.blocks[name].length
                          for name in result.block_order},
        "block_usage": {name: result.blocks[name].block_usage()
                        for name in result.block_order},
        "tile_words": result.tile_words(),
        "total_movs": result.total_movs,
        "total_pnops": result.total_pnops,
        "total_words": result.total_words,
        "placement_digest": placement_digest(result),
    }


def placement_digest(result):
    """SHA-256 over every block's placements, MOVs, homes and attempts.

    The aggregates above can hide a swapped pair of placements; this
    pins the mapping decisions themselves: placements sorted by op,
    MOVs in insertion order, new symbol homes in fixing order and the
    number of attempts the block needed.
    """
    blocks = []
    for name in result.block_order:
        block = result.blocks[name]
        blocks.append([
            name,
            sorted(block.placements.items()),
            block.movs,
            list(block.new_homes.items()),
            block.attempts,
        ])
    encoded = json.dumps(blocks, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _params():
    params = []
    for entry in GOLDEN["mappings"]:
        marks = ([pytest.mark.slow] if entry["kernel"] in _HEAVY
                 else [])
        params.append(pytest.param(
            entry, marks=marks,
            id=f"{entry['kernel']}/{entry['variant']}"))
    return params


@pytest.mark.parametrize("entry", _params())
def test_mapping_matches_snapshot(entry):
    kernel = get_kernel(entry["kernel"])
    result = map_kernel(kernel.cdfg, get_config(CONFIG),
                        VARIANTS[entry["variant"]]())
    snapshot = mapping_snapshot(result)
    assert snapshot == entry["snapshot"], (
        f"{entry['kernel']}/{entry['variant']}: mapping drifted from "
        f"the golden snapshot — an optimisation changed a mapping "
        f"decision")


def regenerate():  # pragma: no cover — maintenance helper
    """Rewrite mappings.json from the current mapper."""
    from repro.kernels import PAPER_KERNEL_ORDER

    mappings = []
    for kernel_name in PAPER_KERNEL_ORDER:
        kernel = get_kernel(kernel_name)
        for variant in sorted(VARIANTS):
            result = map_kernel(kernel.cdfg, get_config("HOM32"),
                                VARIANTS[variant]())
            mappings.append({
                "kernel": kernel_name,
                "variant": variant,
                "snapshot": mapping_snapshot(result),
            })
            print(f"{kernel_name}/{variant} ok", flush=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"config": "HOM32", "mappings": mappings}, indent=1) + "\n")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
