"""Exact 3-coloring toolkit for triangle-free graphs in the sphere, disk, and cylinder."""

from .embedding import (
    CycleRef,
    EmbeddedGraph,
    FaceList,
    distance,
    emit_emg,
    enumerate_short_cycles,
    is_contractible,
    is_tame,
    parse_emg,
    parse_emg_stream,
)
from .coloring import (
    ExtendableSet,
    Precoloring,
    count_colorings,
    dominates,
    dominates_under,
    extend,
    extendable_set,
)

__all__ = [
    "CycleRef",
    "EmbeddedGraph",
    "FaceList",
    "ExtendableSet",
    "Precoloring",
    "count_colorings",
    "distance",
    "dominates",
    "dominates_under",
    "emit_emg",
    "enumerate_short_cycles",
    "extend",
    "extendable_set",
    "is_contractible",
    "is_tame",
    "parse_emg",
    "parse_emg_stream",
]

__version__ = "0.1.0"
