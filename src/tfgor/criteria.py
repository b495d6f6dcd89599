"""Decision procedures for Cohen-Macaulay, Eulerian, Gorenstein and the
second-power criterion, over a selectable coefficient field.

Cohen-Macaulayness is Reisner's criterion (Reisner 1976; Stanley,
Combinatorics and Commutative Algebra, II.4), decided by vertex links
since lk_F = lk_v(lk_(F-v)): a complex is Cohen-Macaulay iff it is pure,
has no reduced homology below its top degree, and every vertex link is
Cohen-Macaulay.  Purity is implied by the rest (by induction, the facets
through a vertex have one size, and H~_0 = 0 connects the vertices) and
only rejects early; tests compare against the bare per-face loop.  A
cone is Cohen-Macaulay iff its base is, so the vertices in every facet
are peeled off first.  Facets are sorted vertex bitmasks; a link or a
peel clears bits, which keeps them sorted and inclusion-maximal.  One
cache keyed by (facet masks, field) holds the verdicts, so a link shared
by many faces is ranked once, and a complex is built only on a miss.  A
facet file enters relabeled by rank, a graph as the maximal independent
sets of a vertex mask.  Gorensteinness: the core is Eulerian and
Cohen-Macaulay, the latter decided on the whole complex by the peel.

On graphs, everything that needs no homology is computed in graphs:
alpha and alpha-criticality from one memoized recursion over vertex
masks, girth by breadth-first layers, and well-coveredness from the
maximal independent sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_

from .complexes import (
    SimplicialComplex,
    core_of,
    independence_complex,
    is_pure,
)
from .graphs import (
    Graph,
    _bits_to_tuple,
    _maximal_independent_masks,
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
def _cm(facets: tuple[int, ...], field: FieldSpec) -> bool:
    # sorted vertex bitmasks; ground vertices in no face change no homology
    apex = reduce(and_, facets)
    if apex:  # a cone is Cohen-Macaulay iff its base is
        return _cm(tuple(f ^ apex for f in facets), field)
    size = facets[0].bit_count()
    if any(f.bit_count() != size for f in facets):
        return False
    vertices = _bits_to_tuple(reduce(or_, facets))
    c = SimplicialComplex(vertices, map(_bits_to_tuple, facets), validate=False)
    betti = reduced_betti(c, field)
    if any(betti[i] for i in range(-1, size - 1)):
        return False
    # clearing bit v keeps the facets of lk_v sorted and inclusion-maximal
    return all(
        _cm(tuple(f ^ (1 << v) for f in facets if f >> v & 1), field) for v in vertices
    )


def is_cohen_macaulay(c: SimplicialComplex, field: FieldSpec) -> bool:
    """Reisner's condition: every link has homology only in its top degree."""
    _require_nonvoid(c)
    # facets as masks, relabeled by rank so that a large label makes no large mask
    bit = {x: 1 << i for i, x in enumerate(sorted({x for f in c.facets for x in f}))}
    return _cm(tuple(sorted(sum(bit[x] for x in f) for f in c.facets)), field)


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
    # c is its core joined with a simplex, which the cone peel removes
    return is_eulerian(core_of(c)) and is_cohen_macaulay(c, field)


def is_cm_graph(g: Graph, field: FieldSpec) -> bool:
    """Cohen-Macaulayness of Ind(g), whose facets are the maximal
    independent sets of g.  Ind(g) is pure iff g is well-covered, so a
    graph that is not well-covered is rejected before any homology."""
    return _cm(tuple(sorted(_maximal_independent_masks(g))), field)


def is_gorenstein_graph(g: Graph, field: FieldSpec) -> bool:
    """Gorensteinness of Ind(g).

    A Gorenstein complex has a Cohen-Macaulay, hence pure, core, and Ind(g),
    the join of its core with a simplex, is pure iff its core is.  So a
    graph that is not well-covered is rejected before Ind(g) is built.
    """
    return is_well_covered(g) and is_gorenstein(independence_complex(g), field)


def is_second_power_cm(g: Graph, field: FieldSpec) -> bool:
    """Edge-localization criterion for Cohen-Macaulayness of the second
    power of the edge ideal.

    Decides: g is triangle-free, g is Cohen-Macaulay, and for every edge
    ab the localization at ab, the vertex mask V minus N(a) and N(b) of g,
    is Cohen-Macaulay with independence number alpha(g) - 1.  The
    independence-number condition on every edge is alpha-criticality (see
    graphs.is_alpha_critical), tested first because it needs no homology.
    The verdict depends on the field and is labeled with it wherever
    reported.
    """
    full, nbr = (1 << g.n) - 1, g._nbr_bits
    return (
        is_triangle_free(g)
        and is_alpha_critical(g)
        and is_cm_graph(g, field)
        and all(
            _cm(tuple(sorted(_maximal_independent_masks(g, full & ~(nbr[a] | nbr[b])))), field)
            for a, b in g.edges()
        )
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
