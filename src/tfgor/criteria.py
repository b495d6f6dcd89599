"""Decision procedures for Cohen-Macaulay, Gorenstein and the
second-power criterion, over a selectable coefficient field.

On a complex given by its facet masks, one walk over vertex links
decides both, since lk_F = lk_v(lk_(F-v)).  A complex is
Cohen-Macaulay iff it is pure, has no reduced homology below
its top degree, and every vertex link is Cohen-Macaulay (Reisner 1976;
Stanley, Combinatorics and Commutative Algebra, II.4); it is Gorenstein*
iff moreover its top reduced Betti number is 1 here and at every link
(Stanley II.5.1).  Purity is implied by the rest (by induction, the
facets through a vertex have one size, and H~_0 = 0 connects the
vertices) and only rejects early; tests compare against the bare
per-face loop.  A cone is Cohen-Macaulay iff its base is, and acyclic,
so the vertices in every facet are peeled off first.  Facets are sorted
vertex bitmasks; a link or a peel clears bits, which keeps them sorted
and inclusion-maximal.  The verdicts are memoized in a dict the caller
owns, keyed by (facet masks, field): a graph's own memo for the masks of
a graph, a fresh one per call on a facet file.  So a link shared by many
faces is ranked once per memo, over the field asked for alone, and a miss
hands its masks to homology.reduced_betti as they are.  A facet file
enters as homology.parse_facets gives it, relabeled by rank, and a
vertex mask of a graph as its maximal independent sets
(graphs._ind_facets), where the graph path below needs a rank.  A
complex is Gorenstein iff its core, the peeled complex, is Gorenstein*.

A graph is decided on vertex masks of itself, each part memoized in
the Graph's one memo (see graphs.Graph): vertex decomposability, the
Eulerian walk and the facets by mask, the link walk above by facets and
field.  The link of a vertex v in Ind(g[s]) is
Ind(g[s - N[v]]), so every link of every edge localization is a mask of
the same memo.  At a mask the components of g[s] are the factors of a
join, and a join is Cohen-Macaulay (Gorenstein*) iff each factor is
(Kunneth for joins over a field); an isolated vertex is a cone apex,
which Cohen-Macaulayness ignores.  A pure vertex-decomposable complex is
shellable, hence Cohen-Macaulay over every field (Provan and Billera
1980), and Woodroofe's criterion (Proc. AMS 137, 2009), with purity
read off alpha and one shedding vertex taken per mask, certifies that on
a component with no field, no rank and no facet
(graphs._vertex_decomposable).  The certificate only proves: wherever
it does not, the component's facet masks go to the link walk above,
which decides exactly and rejects a mask that is not pure (not
well-covered) before any rank.  Gorenstein* is Cohen-Macaulay plus
Eulerian (Stanley II.5.1), and the Eulerian walk needs no field either
(graphs._eulerian).  Alpha-criticality and well-coveredness are
memoized in the Graph as well, so deciding a graph over several fields
repeats only the homology, where any is left.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .graphs import (
    Graph,
    _components,
    _eulerian,
    _ind_facets,
    _localizations,
    _vertex_decomposable,
    is_alpha_critical,
    is_triangle_free,
    is_well_covered,
)
from .homology import FieldSpec, reduced_betti

__all__ = [
    "is_cohen_macaulay",
    "is_gorenstein",
    "is_cm_graph",
    "is_gorenstein_graph",
    "is_second_power_cm",
]


def _cm(facets: tuple[int, ...], field: FieldSpec, memo: dict) -> int:
    # sorted vertex bitmasks; ground vertices in no face change no homology.
    # 0: not Cohen-Macaulay, 1: Cohen-Macaulay, 2: Gorenstein*, memoized in
    # memo by (facets, field)
    key = (facets, field)
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    apex = reduce(and_, facets)
    size = facets[0].bit_count()
    if apex:  # a cone is Cohen-Macaulay iff its base is, never Gorenstein*
        verdict = min(_cm(tuple(f ^ apex for f in facets), field, memo), 1)
    elif any(f.bit_count() != size for f in facets):
        verdict = 0
    else:
        betti = reduced_betti(facets, field)
        low = any(betti[i] for i in range(-1, size - 1))
        verdict = 0 if low else 2 if betti[size - 1] == 1 else 1
        # clearing bit b keeps the facets of its link sorted and inclusion-maximal
        left = reduce(or_, facets)
        while verdict and left:
            b = left & -left
            left ^= b
            verdict = min(verdict, _cm(tuple(f ^ b for f in facets if f & b), field, memo))
    memo[key] = verdict
    return verdict


def is_cohen_macaulay(facets: tuple[int, ...], field: FieldSpec) -> bool:
    """Reisner's condition on the complex with the given sorted facet
    masks (as parse_facets gives them): every link has homology only in
    its top degree."""
    if not facets:
        raise ValueError("operation undefined on the void complex")
    return _cm(facets, field, {}) > 0


def is_gorenstein(facets: tuple[int, ...], field: FieldSpec) -> bool:
    """True iff the core of the complex with the given sorted facet masks,
    the complex with its cone apexes peeled, is Gorenstein*."""
    if not facets:
        raise ValueError("operation undefined on the void complex")
    apex = reduce(and_, facets)
    return _cm(tuple(f ^ apex for f in facets), field, {}) == 2


def _cm_graph(g: Graph, s: int, field: FieldSpec) -> bool:
    """Cohen-Macaulayness of Ind(g[s]) over field, for a vertex mask s.
    The components of g[s] are the join factors, and an isolated vertex a
    cone apex, which changes nothing.  g[s] is Cohen-Macaulay if the
    field-free certificate, pure and vertex decomposable, holds on all of
    it (an isolated vertex is a simplex, which passes).  Otherwise each
    component is decided apart: by the certificate, or where it proves
    nothing, by the link walk on its facet masks, purity first.  The
    certificate is memoized in g by mask, s and its components alike, so
    a second field floods no component of a certified s again.  Each part
    is memoized in g on its own, so the verdict needs no key of its own."""
    return _vertex_decomposable(g, s) or all(
        _vertex_decomposable(g, c) or _cm(_ind_facets(g, c), field, g._memo) > 0
        for c in _components(g, s)
    )


def is_cm_graph(g: Graph, field: FieldSpec) -> bool:
    """Cohen-Macaulayness of Ind(g).  Ind(g) is pure iff g is well-covered,
    so a graph that is not well-covered is rejected before any homology,
    by the verdict memoized in g."""
    return is_well_covered(g) and _cm_graph(g, (1 << g.n) - 1, field)


def is_gorenstein_graph(g: Graph, field: FieldSpec) -> bool:
    """Gorensteinness of Ind(g), whose core is Ind(g') for g' the
    non-isolated vertices: Ind(g') is Cohen-Macaulay and Eulerian
    (Stanley II.5.1).  Purity, which Ind(g) has iff g is well-covered, is
    memoized in g and runs first; the Eulerian walk, which needs no field,
    runs before the link walk, and its first test at each connected core
    factor is Euler-Poincare for a homology sphere, chi~ = (-1)^(alpha - 1)."""
    if not is_well_covered(g):
        return False
    core = sum(1 << v for v, b in enumerate(g._nbr_bits) if b)
    return _eulerian(g, core) and _cm_graph(g, core, field)


def is_second_power_cm(g: Graph, field: FieldSpec) -> bool:
    """Edge-localization criterion for Cohen-Macaulayness of the second
    power of the edge ideal.

    Decides: g is triangle-free, g is Cohen-Macaulay, and for every edge
    ab the localization at ab, the vertex mask V minus N(a) and N(b) of g,
    is Cohen-Macaulay with independence number alpha(g) - 1.  The
    independence-number condition on every edge is alpha-criticality (see
    graphs.is_alpha_critical), tested first because it needs no homology.
    The localization is C - N(a) - N(b), for C the component of ab, beside
    the other components of g.  Ind of a disjoint union is the join of the
    parts' complexes, and a join is Cohen-Macaulay iff each factor is
    (Kunneth for joins over a field); is_cm_graph has found every component
    Cohen-Macaulay, so only C - N(a) - N(b) is asked.  The verdict depends
    on the field and is labeled with it wherever reported.
    """
    return (
        is_triangle_free(g)
        and is_alpha_critical(g)
        and is_cm_graph(g, field)
        and all(_cm_graph(g, loc, field) for _, loc in _localizations(g))
    )
