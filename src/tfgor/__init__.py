"""Exact decision procedures for well-covered, W2, Cohen-Macaulay and
Gorenstein graphs and simplicial complexes, plus an exhaustive small-graph
survey verifying that for triangle-free graphs without isolated vertices
the three conditions (W2 membership, Gorensteinness, the second-power
criterion for the edge ideal) coincide.
"""

from ._version import __version__
from .criteria import (
    is_cm_graph,
    is_cohen_macaulay,
    is_gorenstein,
    is_gorenstein_graph,
    is_second_power_cm,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edge_list,
    generate,
    girth,
    girth4_planar,
    has_isolated_vertices,
    independence_euler_characteristic,
    independence_number,
    is_alpha_critical,
    is_connected,
    is_in_w2,
    is_triangle_free,
    is_well_covered,
    parse_edge_list,
    parse_graph6,
    path_graph,
    write_edge_list,
    write_graph6,
)
from .homology import (
    GF2,
    GF3,
    GF5,
    RATIONALS,
    FieldSpec,
    parse_facets,
    reduced_betti,
)
from .survey import build_record, record_to_json, report_to_csv, report_to_json, survey

# The rank kernels are pure Python; kept as a name for run metadata.
BACKEND = "pure"
