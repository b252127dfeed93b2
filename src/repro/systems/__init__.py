"""Reimplementations of the five graph processing systems.

Each subpackage is a genuinely distinct implementation -- different data
structure, different algorithmic strategy, different phase structure --
mirroring the systems the paper compares (Sec. III-C):

==============  =====================================================
graph500        OpenMP reference BFS: CSR + bitmap, level-synchronous,
                generates its own Kronecker graph, BFS only
gap             GAP Benchmark Suite: CSR, direction-optimizing BFS
                (alpha/beta), delta-stepping SSSP, PageRank, CC, ...
graphbig        vertex-centric property-graph framework; reads the
                input file and builds the graph simultaneously
graphmat        everything is generalized SpMV over the transpose,
                modelled as DCSR (a CSR's non-empty rows); separate
                read / build / run phases with its own logs
powergraph      gather-apply-scatter engine over a vertex-cut
                partitioning; provides *no* BFS reference
==============  =====================================================

All systems share the :class:`~repro.systems.base.GraphSystem`
interface; :mod:`~repro.systems.calibration` holds the cost/power
constants with their paper anchors.
"""

from repro.systems.base import GraphSystem, KernelResult, LoadedGraph
from repro.systems.registry import (
    ALL_SYSTEM_NAMES,
    available_systems,
    create_system,
)

__all__ = [
    "GraphSystem",
    "KernelResult",
    "LoadedGraph",
    "create_system",
    "available_systems",
    "ALL_SYSTEM_NAMES",
]
