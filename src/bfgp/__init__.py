"""General position sets and isometric cycle covers on butterfly networks."""

from .budget import Budget
from .cycle_cover import (
    CoverReport,
    CycleCover,
    construct_bf_cycle_cover,
    gp_upper_bounds,
    verify_cover,
)
from .genpos import (
    GpWitness,
    SolveResult,
    VertexSet,
    brute_force_max_gp,
    collinear_triples,
    construct_butterfly_gp_set,
    max_general_position,
    verify_general_position,
)
from .geodesy import (
    DistanceMatrix,
    all_pairs_distances,
    lies_between,
    walk_defect,
    walk_violation,
)
from .graph_io import export_graph, import_graph
from .graphs import (
    Graph,
    build_butterfly,
    build_cycle,
    build_path,
)

__version__ = "0.1.0"
