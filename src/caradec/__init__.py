"""Caratheodory-style decompositions of feasible-set polytope points,
continuous extensions of set objectives with exact piecewise-linear
gradients, and decomposition-based solvers for constrained combinatorial
optimization."""

from .core import (
    Cardinality,
    ConstraintSpec,
    Decomposition,
    DecompositionConfig,
    DimensionError,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    ValidationReport,
    VertexSet,
    reconstruct,
    validate_decomposition,
)
from .graphs import Graph, read_edge_list, write_edge_list
from .kernels import backend as kernel_backend

__version__ = "0.1.0"
