"""Decision procedures for Cohen-Macaulay, Eulerian, Gorenstein and the
second-power criterion, over a selectable coefficient field.

Cohen-Macaulayness is Reisner's criterion (Reisner 1976; Stanley,
Combinatorics and Commutative Algebra, II.4): every link has reduced
homology only in its top degree.  Since lk_F = lk_v(lk_(F-v)), it is
decided by vertex links: a complex is Cohen-Macaulay iff it is pure, has
no reduced homology below its top degree, and every vertex link is
Cohen-Macaulay.  Purity is implied by the criterion and only rejects
early (tests compare against the bare per-face loop).  One cache keyed
by (facets, field) holds the verdicts, so a link shared by many faces is
ranked once.  The facets of a vertex link are built as bare tuples, so a
complex is built only on a cache miss.  Gorensteinness is decided on the
core: the core must be Cohen-Macaulay and Eulerian.  The second power of
the edge ideal is decided through the edge-localization criterion: the
graph is triangle-free and Cohen-Macaulay, and every edge localization
is Cohen-Macaulay with independence number exactly one less.

On graphs, everything that needs no homology is computed in graphs
without building a complex: alpha and alpha-criticality from one
memoized recursion over vertex masks, girth by breadth-first layers,
and well-coveredness from the maximal independent sets.  Cohen-Macaulay
and Gorenstein complexes are pure, and Ind(g) is pure iff g is
well-covered, so is_cm_graph and is_gorenstein_graph reject a graph that
is not well-covered before Ind(g) is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .complexes import (
    SimplicialComplex,
    core_of,
    independence_complex,
    is_pure,
)
from .graphs import (
    Graph,
    edge_localize,
    has_isolated_vertices,
    is_alpha_critical,
    is_in_w2,
    is_triangle_free,
    is_well_covered,
)
from .homology import FieldSpec, reduced_betti

__all__ = [
    "TheoremVerdict",
    "is_cohen_macaulay",
    "is_eulerian",
    "is_gorenstein",
    "is_cm_graph",
    "is_gorenstein_graph",
    "is_second_power_cm",
    "check_theorem",
]


def _require_nonvoid(c: SimplicialComplex):
    if c.is_void:
        raise ValueError("operation undefined on the void complex")


@lru_cache(maxsize=8192)
def _cm(facets: tuple[tuple[int, ...], ...], field: FieldSpec) -> bool:
    # keyed by facets: ground vertices in no face change no homology
    size = len(facets[0])
    if any(len(f) != size for f in facets):
        return False
    c = SimplicialComplex(set().union(*facets), facets, validate=False)
    betti = reduced_betti(c, field)
    if any(betti[i] for i in range(-1, c.dim)):
        return False
    # the facets of lk_v, sorted and inclusion-maximal as those of c are
    return all(
        _cm(tuple(tuple(x for x in f if x != v) for f in facets if v in f), field)
        for v in c.vertices
    )


def is_cohen_macaulay(c: SimplicialComplex, field: FieldSpec) -> bool:
    """Reisner's condition: every link has homology only in its top degree."""
    _require_nonvoid(c)
    return _cm(c.facets, field)


def is_eulerian(c: SimplicialComplex) -> bool:
    """True iff c is pure and the reduced Euler characteristic of every
    face's link equals (-1)^(link dimension)."""
    _require_nonvoid(c)
    if not is_pure(c):
        return False
    d = c.dim
    # chi~(link(F)) accumulated over all faces at once: each face H
    # contributes (-1)^(|H|-|F|-1) to every subset F of H.
    acc = dict.fromkeys(c.faces(), 0)
    for h in c.faces():
        for k in range(len(h) + 1):
            sgn = 1 if (len(h) - k) % 2 else -1
            for f in combinations(h, k):
                acc[f] += sgn
    return all(
        chi == (1 if (d - len(f)) % 2 == 0 else -1) for f, chi in acc.items()
    )


def is_gorenstein(c: SimplicialComplex, field: FieldSpec) -> bool:
    """True iff the core of c is an Eulerian Cohen-Macaulay complex."""
    _require_nonvoid(c)
    core = core_of(c)
    return is_eulerian(core) and _cm(core.facets, field)


def is_cm_graph(g: Graph, field: FieldSpec) -> bool:
    """Cohen-Macaulayness of Ind(g).

    A Cohen-Macaulay complex is pure, by induction on its dimension: each
    vertex link is Cohen-Macaulay, hence pure, so all facets through one
    vertex have one size; in positive dimension H~_0 = 0 makes the complex
    connected, and the two ends of an edge share the facets through it, so
    that size is the same at every vertex.  The facets of Ind(g) are the
    maximal independent sets of g, so Ind(g) is pure iff g is
    well-covered, and a graph that is not well-covered is rejected before
    its complex is built.
    """
    return is_well_covered(g) and _cm(independence_complex(g).facets, field)


def is_gorenstein_graph(g: Graph, field: FieldSpec) -> bool:
    """Gorensteinness of Ind(g).

    A Gorenstein complex has a Cohen-Macaulay, hence pure, core.  Ind(g) is
    the join of its core with the simplex on its cone points, so each facet
    of Ind(g) is a facet of the core plus all cone points, and Ind(g) is
    pure iff its core is.  As in is_cm_graph, Ind(g) is pure iff g is
    well-covered, so a graph that is not well-covered is rejected before
    its complex is built.
    """
    return is_well_covered(g) and is_gorenstein(independence_complex(g), field)


def is_second_power_cm(g: Graph, field: FieldSpec) -> bool:
    """Edge-localization criterion for Cohen-Macaulayness of the second
    power of the edge ideal.

    Decides: g is triangle-free, g is Cohen-Macaulay, and for every edge
    ab the localization at ab is Cohen-Macaulay with independence number
    alpha(g) - 1.  The independence-number condition on every edge is
    alpha-criticality (see graphs.is_alpha_critical), tested first because
    it needs no homology.  The verdict depends on the field and is labeled
    with it wherever reported.
    """
    return (
        is_triangle_free(g)
        and is_alpha_critical(g)
        and is_cm_graph(g, field)
        and all(is_cm_graph(edge_localize(g, a, b), field) for a, b in g.edges())
    )


@dataclass(frozen=True)
class TheoremVerdict:
    """Per-graph record of the three equivalent conditions.

    The equivalence (W2 membership, Gorensteinness, second-power
    criterion) is asserted only for triangle-free graphs without isolated
    vertices; other graphs are out of hypothesis and count as consistent.
    """

    triangle_free: bool
    no_isolated: bool
    is_w2: bool
    gorenstein: bool
    second_power_cm: bool
    in_hypothesis: bool
    consistent: bool


def check_theorem(g: Graph, field: FieldSpec) -> TheoremVerdict:
    tf = is_triangle_free(g)
    no_iso = not has_isolated_vertices(g)
    w2 = is_in_w2(g)
    gor = is_gorenstein_graph(g, field)
    spcm = is_second_power_cm(g, field)
    in_hyp = tf and no_iso
    consistent = (w2 == gor == spcm) if in_hyp else True
    return TheoremVerdict(tf, no_iso, w2, gor, spcm, in_hyp, consistent)
