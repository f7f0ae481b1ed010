"""Quantization: output-space grids (§III-B).

Continuous coordinates are snapped to non-overlapping square grid cells
of side τ; populated cells become classes, empty cells (inaccessible
space) are discarded.  A coarse second resolution l > τ and adjacency
label augmentation address class sparsity.
"""

from repro.quantization.grid import GridQuantizer
from repro.quantization.multires import MultiResolutionQuantizer
from repro.quantization.labels import (
    multi_hot,
    adjacent_cells,
    augment_with_adjacency,
)

__all__ = [
    "GridQuantizer",
    "MultiResolutionQuantizer",
    "multi_hot",
    "adjacent_cells",
    "augment_with_adjacency",
]
