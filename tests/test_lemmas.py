"""Structural facts tying the graph layer to the complex layer, checked on
corpus samples and the named families.  The exhaustive corpus sweeps live
in test_acceptance."""

import random

from oracles import (
    all_graphs,
    brute_independent_sets,
    delete_set,
    edge_localize,
    facet_masks,
    independence_complex,
    is_cone,
    localize,
    oracle_eulerian,
    oracle_faces,
    reduced_euler_characteristic,
    restrict,
)
from tfgor import (
    GF2,
    RATIONALS,
    complete_graph,
    cycle_graph,
    disjoint_union,
    girth4_planar,
    has_isolated_vertices,
    independence_number,
    is_alpha_critical,
    is_cohen_macaulay,
    is_gorenstein,
    is_gorenstein_graph,
    is_in_w2,
    is_triangle_free,
    is_well_covered,
    parse_graph6,
    reduced_betti,
)

GORENSTEIN_NAMES = [
    complete_graph(2),
    cycle_graph(5),
    disjoint_union(complete_graph(2), complete_graph(2)),
    girth4_planar(3),
    girth4_planar(4),
]


def sample(lines, k, seed):
    return [parse_graph6(ln) for ln in random.Random(seed).sample(lines, k)]


def test_gorenstein_without_isolated_implies_w2(corpus_tf_lines):
    for g in GORENSTEIN_NAMES:
        assert is_in_w2(g)
    for g in sample(corpus_tf_lines, 150, seed=2):
        if is_gorenstein_graph(g, RATIONALS):
            assert is_in_w2(g)


def test_triangle_free_w2_has_eulerian_complex(corpus_tf_lines):
    seen_w2 = 0
    for g in sample(corpus_tf_lines, 300, seed=3) + GORENSTEIN_NAMES:
        if not (is_in_w2(g) and is_triangle_free(g)):
            continue
        seen_w2 += 1
        c = independence_complex(g)
        assert oracle_eulerian(c)
        alpha = independence_number(g)
        assert reduced_euler_characteristic(c) == (-1) ** (alpha - 1)
    assert seen_w2 >= len(GORENSTEIN_NAMES)


def test_localization_preserves_gorenstein_with_dim_drop():
    for g in GORENSTEIN_NAMES:
        alpha = independence_number(g)
        dim = independence_complex(g).dim
        for s in brute_independent_sets(g.n, g.edges()):
            if not s:
                continue
            loc = localize(g, s)
            c = independence_complex(loc)
            assert is_gorenstein(facet_masks(c), RATIONALS)
            if len(s) < alpha:
                assert c.dim == dim - len(s)


def test_cone_deletion_vanishing():
    # Gorenstein complexes equal to their core: deleting any vertex subset
    # whose restriction is a cone leaves a fully acyclic complex
    for g in GORENSTEIN_NAMES[:4]:
        c = independence_complex(g)
        verts = list(c.vertices)
        for mask in range(1, 1 << min(len(verts), 8)):
            s = [verts[i] for i in range(len(verts)) if mask >> i & 1]
            if not is_cone(restrict(c, s)):
                continue
            deleted = delete_set(c, s)
            if deleted.is_void:
                continue
            assert not any(reduced_betti(facet_masks(deleted), RATIONALS).values())


def test_face_deletion_cm_for_corpus_gorenstein(corpus_tf_lines):
    checked = 0
    for g in sample(corpus_tf_lines, 120, seed=5):
        if g.n > 8 or not is_gorenstein_graph(g, RATIONALS):
            continue
        c = independence_complex(g)
        for f in oracle_faces(c):
            assert is_cohen_macaulay(facet_masks(delete_set(c, f)), RATIONALS)
        checked += 1
    assert checked >= 1


def test_well_covered_propagation_vertex_and_edge(corpus_tf_lines):
    # localization hypotheses imply well-coveredness (both versions)
    for g in sample(corpus_tf_lines, 200, seed=7):
        alpha = independence_number(g)
        vertex_hyp = all(
            is_well_covered(localize(g, [x]))
            and independence_number(localize(g, [x])) == alpha - 1
            for x in range(g.n)
        )
        if vertex_hyp:
            assert is_well_covered(g)
        if g.edge_count():
            edge_hyp = all(
                is_well_covered(edge_localize(g, a, b))
                and independence_number(edge_localize(g, a, b)) == alpha - 1
                for a, b in g.edges()
            )
            if edge_hyp:
                assert is_well_covered(g)


def test_edge_localization_biconditional(corpus_tf_lines):
    # on triangle-free graphs without isolated vertices, W2 membership is
    # equivalent to every edge localization being well-covered with
    # independence number exactly one less
    for g in sample(corpus_tf_lines, 250, seed=11):
        if has_isolated_vertices(g) or not g.edge_count():
            continue
        alpha = independence_number(g)
        crit = all(
            is_well_covered(edge_localize(g, a, b))
            and independence_number(edge_localize(g, a, b)) == alpha - 1
            for a, b in g.edges()
        )
        assert crit == is_in_w2(g)


def test_triangle_free_w2_members_are_alpha_critical(corpus_tf_lines):
    for g in GORENSTEIN_NAMES:
        assert is_alpha_critical(g)
    for g in sample(corpus_tf_lines, 250, seed=13):
        if is_in_w2(g):
            assert is_alpha_critical(g)


def _closure_graphs():
    # every graph with n <= 7 without isolated vertices, and the family
    graphs = [g for g in all_graphs(7) if not has_isolated_vertices(g)]
    return graphs + [girth4_planar(n) for n in range(3, 9)]


def test_w2_is_closed_under_vertex_links():
    # for g in W2 and any vertex v, g - N[v] is in W2 without isolated
    # vertices: a maximal set S of (g - N[v]) - x gives the maximal set
    # S + v of g - x, so |S| = alpha - 1; an isolated y of g - N[v] would
    # lie in every maximal set, against this at x = y
    members = 0
    for g in _closure_graphs():
        if not is_in_w2(g):
            continue
        members += 1
        for v in range(g.n):
            h = localize(g, [v])
            assert is_in_w2(h) and not has_isolated_vertices(h), (g, v)
    assert members == 1 + 35 + 6  # the empty graph, 35 with 1 <= n <= 7, the family


def test_gorenstein_is_closed_under_vertex_links():
    # the link of v in Ind(g) is Ind(g - N[v]), and the links of a
    # Gorenstein* complex are Gorenstein*
    members = 0
    for g in _closure_graphs():
        for field in (RATIONALS, GF2):
            if not is_gorenstein_graph(g, field):
                continue
            members += 1
            for v in range(g.n):
                assert is_gorenstein_graph(localize(g, [v]), field), (g, v, field)
    assert members == 2 * (1 + 7 + 6)  # per field, as for W2
