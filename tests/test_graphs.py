import gc
import math
import random
import time
from functools import partial
from itertools import combinations, permutations

import pytest

from oracles import (
    all_graphs,
    brute_alpha,
    brute_component_count,
    brute_euler_characteristic,
    brute_girth,
    brute_independent_sets,
    brute_maximal_independent_sets,
    chain_independent_set_counts,
    delete_edge,
    delete_vertex,
    edge_localize,
    independence_complex,
    induced_subgraph,
    localize,
    is_pure,
    localized_vertices,
    oracle_alpha_critical,
    oracle_eulerian,
    oracle_vertex_decomposable,
    oracle_w2,
    oracle_w2_private_neighbors,
    oracle_well_covered,
    reduced_euler_characteristic,
)
from tfgor import (
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
    parse_graph6,
    path_graph,
    survey,
)
from tfgor import graphs as graphs_module
from tfgor.graphs import (
    _SPLIT_ABOVE,
    _alpha_of,
    _components,
    _eulerian,
    _ind_facets,
    _not_alpha_critical,
    _not_well_covered,
    _poly_of,
    _pure,
    _vertex_decomposable,
)


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def interleaved_union(rng, parts):
    """The disjoint union of the graphs parts, its labels shuffled across
    the parts, so that any part may hold the first vertex of a mask."""
    n = sum(h.n for h in parts)
    label, base, edges = rng.sample(range(n), n), 0, []
    for h in parts:
        edges += [(label[base + u], label[base + v]) for u, v in h.edges()]
        base += h.n
    return Graph(n, edges)


def component_count(g):
    return len(_components(g, (1 << g.n) - 1))


def maximal_independent_sets(g):
    """The facets of Ind(g) that the criteria walk, as sorted vertex tuples."""
    return sorted(tuple(v for v in g.vertices() if m >> v & 1) for m in _ind_facets(g))


def test_from_edge_list_k2():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_from_edge_list_c5():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g == cycle_graph(5)


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_from_edge_list_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        from_edge_list(3, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="range"):
        from_edge_list(2, [(0, 2)])


def test_generate_girth4_planar_3():
    g = generate("girth4-planar", 3)
    # 1-based labels: 12, 23, 34, 45, 51, 56, 67, 78, 84, 36
    expected = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
                (5, 6), (6, 7), (7, 8), (8, 4), (3, 6)}
    got = {(u + 1, v + 1) for u, v in g.edges()}
    assert g.n == 8
    assert {frozenset(e) for e in got} == {frozenset(e) for e in expected}


def test_generate_girth4_planar_4():
    # expanded by hand: 1 + 4(n-1) + (n-2) edges on 3n-1 vertices
    g = generate("girth4-planar", 4)
    assert g.n == 11 and g.edge_count() == 15
    expected = {(1, 2)}
    for k in range(1, 4):
        expected |= {(3 * k - 1, 3 * k), (3 * k, 3 * k + 1),
                     (3 * k + 1, 3 * k + 2), (3 * k + 2, 3 * k - 2)}
    for l in range(2, 4):
        expected.add((3 * l - 3, 3 * l))
    got = {frozenset((u + 1, v + 1)) for u, v in g.edges()}
    assert got == {frozenset(e) for e in expected}


def test_generate_cycle():
    assert generate("cycle", 5) == cycle_graph(5)


def test_generate_too_small():
    for family, bad_n in [("girth4-planar", 2), ("cycle", 2), ("path", 0)]:
        with pytest.raises(ValueError):
            generate(family, bad_n)


def test_girth4_planar_edge_count_formula():
    for n in range(3, 8):
        g = girth4_planar(n)
        assert g.n == 3 * n - 1
        assert g.edge_count() == 1 + 4 * (n - 1) + (n - 2)


def test_disjoint_union():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_k2.n == 4 and two_k2.edges() == [(0, 1), (2, 3)]
    g = disjoint_union(complete_graph(1), complete_graph(2))
    assert g.n == 3 and g.edges() == [(1, 2)]
    c = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert c.n == 10 and c.edge_count() == 10


def test_girth():
    assert girth(cycle_graph(5)) == 5
    assert girth(girth4_planar(3)) == 4
    assert girth(path_graph(4)) == math.inf
    assert girth(complete_graph(4)) == 3
    assert girth(Graph(3)) == math.inf


def test_is_triangle_free():
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(cycle_graph(5))
    assert is_triangle_free(girth4_planar(4))


def test_triangle_free_matches_triple_enumeration():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        brute = any(
            g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            for a, b, c in combinations(range(g.n), 3)
        )
        assert is_triangle_free(g) == (not brute)
        assert is_triangle_free(g) == (girth(g) >= 4)


def test_components():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert component_count(two_k2) == 2
    assert component_count(cycle_graph(5)) == 1
    assert component_count(Graph(3)) == 3
    assert component_count(Graph(0)) == 0
    assert has_isolated_vertices(Graph(3))
    assert not has_isolated_vertices(complete_graph(2))
    rng = random.Random(12)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.1, 0.2, 0.4]))
        assert component_count(g) == brute_component_count(g.n, g.edges()), g


def test_component_masks_partition_the_mask():
    # each component of g[s] is closed under neighbors inside s, connected,
    # and the components are disjoint and cover s; listed by least vertex
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.1, 0.2, 0.4]))
        s = rng.getrandbits(g.n)
        parts = _components(g, s)
        assert sum(parts) == s and [c & -c for c in parts] == sorted(c & -c for c in parts)
        h = induced_subgraph(g, [v for v in g.vertices() if s >> v & 1])
        assert len(parts) == brute_component_count(h.n, h.edges()), (g, s)
        for c in parts:
            assert all(g._nbr_bits[v] & s & ~c == 0 for v in g.vertices() if c >> v & 1)


def test_vertex_decomposable_matches_definition_on_all_graphs_up_to_7():
    # Woodroofe's criterion on vertex masks, split into components, with
    # purity read off alpha, against the definition on Ind(g) and purity:
    # 1253 graphs (OEIS A000088 up to n = 7), 1009 vertex decomposable and
    # 187 of them pure.  The certificate takes one shedding vertex per mask
    # and may miss a decomposition, so the equality pins its reach: it
    # misses none of these 187
    graphs = all_graphs(7)
    assert len(graphs) == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044
    counts = [0, 0]
    for g in graphs:
        c = independence_complex(g)
        vd = oracle_vertex_decomposable(c)
        got = _vertex_decomposable(g, (1 << g.n) - 1)
        assert got == (vd and is_pure(c)), g
        counts = [counts[0] + vd, counts[1] + got]
    assert counts == [1009, 187]


def test_rejection_bounds_hold_on_all_graphs_up_to_7():
    # the cited bounds, with k isolated vertices: a well-covered graph has
    # 2 alpha <= n + k (Favaron 1982); an alpha-critical one has slack =
    # n + k - 2 alpha >= 0 (Erdos and Gallai 1961) and every degree at most
    # slack + 1 (Hajnal 1965).  1253 graphs, 238 well-covered and 55
    # alpha-critical by the definitions
    counts = [0, 0]
    for g in all_graphs(7):
        alpha = brute_alpha(g.n, g.edges())
        slack = g.n + sum(g.degree(v) == 0 for v in g.vertices()) - 2 * alpha
        covered, critical = oracle_well_covered(g), oracle_alpha_critical(g)
        if covered:
            assert slack >= 0, g
            assert not _not_well_covered(g, alpha), g
        if critical:
            assert slack >= 0 and all(g.degree(v) <= slack + 1 for v in g.vertices()), g
            assert not _not_alpha_critical(g, alpha), g
        assert is_well_covered(g) == covered, g
        assert is_in_w2(g) == oracle_w2(g), g
        assert is_alpha_critical(g) == critical, g
        counts = [counts[0] + covered, counts[1] + critical]
    assert counts == [238, 55]


def test_well_covered_matches_the_oracle_on_interleaved_disjoint_unions():
    # a disconnected graph is walked one component at a time; the
    # components of these unions interleave their labels, so the first
    # vertex of largest degree may lie in any of them
    rng = random.Random(29)
    covered = 0
    for _ in range(150):
        parts = [random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.5, 0.8]))
                 for _ in range(rng.randint(1, 4))]
        g = interleaved_union(rng, parts)
        assert is_well_covered(g) == oracle_well_covered(g), g
        covered += is_well_covered(g)
    assert covered > 0


def split_unions():
    """Disjoint unions with interleaved labels, each of more than
    _SPLIT_ABOVE vertices: girth4_planar(4), (5) and (6) beside C5, C4 or
    K2, then seeded random unions of two or three parts."""
    rng = random.Random(37)
    second = (cycle_graph(5), cycle_graph(4), complete_graph(2))
    graphs = [interleaved_union(rng, [girth4_planar(n), h]) for n in (4, 5, 6) for h in second]
    while len(graphs) < 45:
        parts = [random_graph(rng, rng.randint(4, 8), rng.choice([0.3, 0.5]))
                 for _ in range(rng.randint(2, 3))]
        g = interleaved_union(rng, parts)
        if g.n > _SPLIT_ABOVE:
            graphs.append(g)
    return graphs


def test_split_recursions_match_the_oracles_on_interleaved_unions(monkeypatch):
    # alpha, I(-1) and purity split a mask of more than _SPLIT_ABOVE
    # vertices into components where they branch: each union is split at
    # least once, and every value matches its brute force
    splits = []

    def counting(nbr, seen, within=-1):
        got = real(nbr, seen, within)
        splits.append(got != within)
        return got

    real = graphs_module._flood
    monkeypatch.setattr(graphs_module, "_flood", counting)
    covered = 0
    for g in split_unions():
        nbr, memo, full = g._nbr_bits, g._memo, (1 << g.n) - 1
        edges = g.edges()
        splits.clear()
        assert _alpha_of(nbr, memo, full) == brute_alpha(g.n, edges), g
        assert -_poly_of(nbr, memo, full) == brute_euler_characteristic(g.n, edges), g
        assert _pure(nbr, memo, full) == oracle_well_covered(g), g
        assert any(splits), g
        assert is_well_covered(g) == oracle_well_covered(g), g
        covered += is_well_covered(g)
    assert covered == 9


def test_walks_match_the_oracles_on_interleaved_unions():
    # the Eulerian and vertex-decomposability walks read alpha and I(-1)
    # off the split recursions: against the definitions on girth4_planar(4)
    # beside C5, C4 and K2, and on the random unions whose Ind has at most
    # 80 facets (the oracles compare faces pairwise and try every shedding
    # vertex)
    graphs = split_unions()
    counts = [0, 0, 0]
    for g in graphs[:3] + graphs[9:]:
        c = independence_complex(g)
        if len(c.facets) > 80 and g not in graphs[:3]:
            continue
        full = (1 << g.n) - 1
        eulerian, vd = _eulerian(g, full), _vertex_decomposable(g, full)
        assert eulerian == oracle_eulerian(c), g
        assert vd == (oracle_vertex_decomposable(c) and is_pure(c)), g
        counts = [counts[0] + 1, counts[1] + eulerian, counts[2] + vd]
    assert counts == [29, 2, 2]


def test_greedy_witness_is_linear_in_the_components():
    # the greedy witness is the first descent of the purity walk, which
    # takes a disconnected graph one component at a time: 600 disjoint
    # edges, whose Ind is a join of 600 copies of S^0 with 2^600 facets
    # (4,000 edges would exceed the alpha recursion on the whole graph)
    g = Graph(1200, [(2 * i, 2 * i + 1) for i in range(600)])
    start = time.perf_counter()
    assert is_well_covered(g) and is_in_w2(g)
    assert time.perf_counter() - start < 1.0


def test_is_well_covered_matches_the_oracle_on_both_fixture_corpora(
    corpus_tf_lines, corpus_girth5_lines
):
    # the walk against the maximal independent sets by brute force: 65 of
    # the 1736 triangle-free graphs and 20 of the 683 of girth at least 5
    for lines, members in ((corpus_tf_lines, 65), (corpus_girth5_lines, 20)):
        covered = 0
        for ln in lines:
            g = parse_graph6(ln)
            got = is_well_covered(g)
            assert got == oracle_well_covered(g), ln
            covered += got
        assert covered == members


def test_vertex_decomposable_on_vertex_masks():
    # a mask of g decides as the induced subgraph does, in g's memo
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.35, 0.5]))
        for s in {rng.getrandbits(g.n) for _ in range(4)}:
            c = independence_complex(induced_subgraph(g, [v for v in g.vertices() if s >> v & 1]))
            want = oracle_vertex_decomposable(c) and is_pure(c)
            assert _vertex_decomposable(g, s) == want, (g, s)
    # C_n is vertex decomposable iff n is 3 or 5 (Woodroofe 2009; it is not
    # even sequentially Cohen-Macaulay otherwise, Francisco and Van Tuyl 2007)
    for n in range(3, 14):
        assert _vertex_decomposable(cycle_graph(n), (1 << n) - 1) == (n in (3, 5)), n


def test_has_isolated_matches_singleton_components():
    # deleting a vertex that is a component of its own drops the count by
    # one; deleting any other vertex leaves its component nonempty
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), 0.3)
        assert has_isolated_vertices(g) == any(
            component_count(delete_vertex(g, v)) < component_count(g) for v in g.vertices()
        )


def test_induced_subgraph():
    c5 = cycle_graph(5)
    assert induced_subgraph(c5, [0, 1, 2]) == path_graph(3)
    assert induced_subgraph(c5, [0, 2]) == Graph(2)
    k3 = complete_graph(3)
    assert induced_subgraph(k3, [0, 1, 2]) == k3
    with pytest.raises(ValueError):
        induced_subgraph(c5, [0, 7])


def test_delete_edge():
    assert delete_edge(complete_graph(2), (0, 1)) == Graph(2)
    assert delete_edge(cycle_graph(5), (0, 1)).edge_count() == 4
    assert sorted(delete_edge(complete_graph(3), (0, 1)).edges()) == [(0, 2), (1, 2)]
    with pytest.raises(ValueError):
        delete_edge(cycle_graph(5), (0, 2))


def test_localize():
    c5 = cycle_graph(5)
    assert localized_vertices(c5, [0]) == (2, 3)
    assert localize(c5, [0]) == complete_graph(2)
    assert localize(c5, []) == c5
    assert localize(complete_graph(2), [0]) == Graph(0)
    with pytest.raises(ValueError, match="independent"):
        localize(c5, [0, 1])


def test_edge_localize():
    c5 = cycle_graph(5)
    assert edge_localize(c5, 0, 1) == Graph(1)
    assert edge_localize(complete_graph(2), 0, 1) == Graph(0)
    with pytest.raises(ValueError):
        edge_localize(c5, 0, 2)


def test_edge_localize_girth4_planar_3():
    # localizing at x1x2 keeps {x4, x6, x7, x8} with edges x4x8, x6x7, x7x8
    g = girth4_planar(3)
    h = edge_localize(g, 0, 1)
    assert h.n == 4
    assert {frozenset(e) for e in h.edges()} == {
        frozenset((0, 3)), frozenset((1, 2)), frozenset((2, 3))
    }
    assert independence_number(h) == 2


def test_edge_localize_is_localization_of_deletion():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        for a, b in g.edges():
            gd = delete_edge(g, (a, b))
            assert edge_localize(g, a, b) == localize(gd, [a, b])


def test_maximal_independent_sets_examples():
    assert maximal_independent_sets(cycle_graph(4)) == [(0, 2), (1, 3)]
    assert maximal_independent_sets(complete_graph(3)) == [(0,), (1,), (2,)]
    assert maximal_independent_sets(path_graph(3)) == [(0, 2), (1,)]
    assert maximal_independent_sets(Graph(0)) == [()]


def test_maximal_independent_sets_brute_force():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        assert maximal_independent_sets(g) == brute_maximal_independent_sets(
            n, g.edges()
        )


def test_every_independent_set_extends_to_a_listed_one():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        mis = [set(s) for s in maximal_independent_sets(g)]
        for s in brute_independent_sets(n, g.edges()):
            assert any(set(s) <= m for m in mis)


def test_independence_number():
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(girth4_planar(3)) == 3
    assert all(independence_number(complete_graph(n)) == 1 for n in (1, 2, 5))
    assert independence_number(Graph(0)) == 0


def test_is_well_covered():
    assert is_well_covered(cycle_graph(4))
    assert not is_well_covered(path_graph(3))
    assert is_well_covered(cycle_graph(5))
    assert is_well_covered(Graph(0))


def test_is_in_w2():
    assert is_in_w2(complete_graph(3))
    assert not is_in_w2(cycle_graph(4))
    assert is_in_w2(cycle_graph(5))
    assert is_in_w2(complete_graph(2))
    assert is_in_w2(Graph(0))
    # isolated-vertex conventions, K1 included
    assert not is_in_w2(complete_graph(1))
    assert not is_in_w2(disjoint_union(complete_graph(1), complete_graph(2)))


def test_is_alpha_critical():
    assert is_alpha_critical(cycle_graph(5))
    assert not is_alpha_critical(cycle_graph(4))
    assert is_alpha_critical(complete_graph(2))
    assert is_alpha_critical(Graph(3))  # edgeless, vacuous
    assert all(is_alpha_critical(girth4_planar(n)) for n in range(3, 7))


def _alpha_critical_test_graphs():
    rng = random.Random(53)
    graphs = [Graph(n) for n in range(5)] + [complete_graph(n) for n in range(1, 9)]
    graphs += [cycle_graph(n) for n in range(3, 9)]
    graphs += [random_graph(rng, rng.randint(1, 8), p) for p in (0.3, 0.5, 0.8) for _ in range(25)]
    return graphs


def test_is_alpha_critical_matches_edge_deletion_definition():
    found = 0
    for g in _alpha_critical_test_graphs() + _invariant_test_graphs():
        edges = g.edges()
        alpha = brute_alpha(g.n, edges)
        want = all(
            brute_alpha(g.n, [f for f in edges if f != e]) > alpha for e in edges
        )
        assert is_alpha_critical(g) == want, g
        found += want and bool(edges)
    assert found >= 10  # not only vacuous cases


def _brute_maximal_sizes(g, skip=None):
    """Sizes of the maximal independent sets of g, or of g - skip.  Each
    maximal set of g - x is a maximal set of g with x removed."""
    cands = {
        tuple(v for v in s if v != skip)
        for s in brute_maximal_independent_sets(g.n, g.edges())
    }
    return {len(s) for s in cands if not any(set(s) < set(t) for t in cands)}


def test_is_in_w2_matches_definition():
    graphs = _alpha_critical_test_graphs()
    graphs += [g for g in _invariant_test_graphs() if g.n <= 11]
    for g in graphs:
        alpha = brute_alpha(g.n, g.edges())
        want = g.n == 0 or (
            not has_isolated_vertices(g)
            and all(_brute_maximal_sizes(g, x) == {alpha} for x in (None, *range(g.n)))
        )
        assert is_in_w2(g) == want, g


def test_is_in_w2_by_shedding_matches_both_oracles(corpus_tf_lines, corpus_girth5_lines):
    # every vertex sheds, against the private-neighbor scan it replaced and
    # against vertex deletion; isolated vertices and the empty graph take
    # no special case
    graphs = [parse_graph6(ln) for ln in corpus_tf_lines + corpus_girth5_lines]
    graphs += [girth4_planar(n) for n in range(3, 9)]
    graphs += [disjoint_union(complete_graph(1), h) for h in (complete_graph(2), cycle_graph(5))]
    graphs.append(Graph(0))
    members = 0
    for g in graphs:
        got = is_in_w2(g)
        assert got == oracle_w2_private_neighbors(g) == oracle_w2(g), g
        members += got
    # K2, C5 and girth4_planar(3); K2 and C5 again; the family; the empty graph
    assert members == 3 + 2 + 6 + 1


def test_localization_alpha_inequality():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        alpha = independence_number(g)
        wc = is_well_covered(g)
        for s in brute_independent_sets(g.n, g.edges()):
            loc = localize(g, s)
            assert independence_number(loc) <= alpha - len(s)
            if wc:
                assert independence_number(loc) == alpha - len(s)
                assert is_well_covered(loc)


def test_w2_localization_closure():
    for g in (cycle_graph(5), complete_graph(3), girth4_planar(3),
              complete_graph(4), cycle_graph(7)):
        if not is_in_w2(g):
            continue
        alpha = independence_number(g)
        for s in brute_independent_sets(g.n, g.edges()):
            if 0 < len(s) < alpha:
                assert is_in_w2(localize(g, s))


def test_delete_vertex_keeps_other_adjacency():
    c5 = cycle_graph(5)
    assert delete_vertex(c5, 0) == path_graph(4)
    with pytest.raises(ValueError):
        delete_vertex(c5, 5)


def _invariant_test_graphs():
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randint(0, 9), p) for p in (0.2, 0.4, 0.6, 0.9) for _ in range(40)]
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [path_graph(n) for n in range(1, 10)]
    graphs += [cycle_graph(n) for n in range(3, 10)]
    graphs += [girth4_planar(n) for n in range(3, 7)]
    graphs += [
        disjoint_union(path_graph(3), path_graph(4)),
        disjoint_union(complete_graph(2), disjoint_union(Graph(2), path_graph(5))),
        disjoint_union(cycle_graph(5), cycle_graph(4)),
        disjoint_union(cycle_graph(7), path_graph(3)),
        disjoint_union(cycle_graph(5), cycle_graph(5)),
        disjoint_union(girth4_planar(3), complete_graph(3)),
    ]
    return graphs


def test_girth_matches_brute_force():
    rng = random.Random(13)
    trees = [
        Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        for n in (10, 40, 120) for _ in range(3)
    ]
    # one chord closes a cycle, so a tree plus a non-edge is no forest
    chorded = [
        Graph(t.n, t.edges() + [rng.choice([
            e for e in combinations(range(t.n), 2) if not t.has_edge(*e)
        ])])
        for t in trees
    ]
    graphs = _invariant_test_graphs() + [Graph(n) for n in range(25)]
    graphs += [path_graph(n) for n in (30, 100, 300)] + trees + chorded
    graphs += [disjoint_union(t, cycle_graph(4)) for t in trees[:3]]
    for g in graphs:
        assert girth(g) == brute_girth(g.n, g.edges()), g
    # a forest needs no search; one breadth-first search per root is quadratic
    start = time.perf_counter()
    assert girth(path_graph(1200)) == math.inf
    assert time.perf_counter() - start < 1.0
    forests = [
        disjoint_union(path_graph(3), path_graph(4)),
        disjoint_union(complete_graph(2), disjoint_union(Graph(2), path_graph(5))),
        Graph(24),
    ]
    assert all(girth(g) == math.inf for g in forests)
    assert [girth(cycle_graph(n)) for n in range(3, 10)] == list(range(3, 10))


def test_girth_matches_brute_force_on_corpora(corpus_tf_lines, corpus_girth5_lines):
    # the search ends at the first cycle of length 3, or 4 on a
    # triangle-free graph; graphs with triangles must still find 3
    rng = random.Random(29)
    graphs = [parse_graph6(ln) for ln in corpus_tf_lines + corpus_girth5_lines]
    with_triangles = [random_graph(rng, rng.randint(3, 10), p) for p in (0.3, 0.5, 0.8) for _ in range(40)]
    with_triangles = [g for g in with_triangles if not is_triangle_free(g)]
    assert len(with_triangles) >= 60
    for g in graphs + with_triangles:
        assert girth(g) == brute_girth(g.n, g.edges()), g


def _memo_test_graphs():
    rng = random.Random(61)
    graphs = [Graph(0), Graph(1), Graph(4), complete_graph(2), cycle_graph(5)]
    graphs += [disjoint_union(Graph(1), cycle_graph(5)), disjoint_union(cycle_graph(4), Graph(2))]
    graphs += [random_graph(rng, rng.randint(0, 9), p) for p in (0.15, 0.3, 0.5, 0.7) for _ in range(8)]
    return graphs


def test_graph_memo_does_not_depend_on_call_order():
    # well-coveredness and W2 share one memoized scan and alpha-criticality
    # and triangle-freeness are memoized too: in every call order, on a
    # fresh graph each time, every verdict agrees with the brute force
    verdicts = (is_well_covered, is_in_w2, is_alpha_critical, is_connected, is_triangle_free)
    orders = list(permutations(range(len(verdicts))))
    for h in _memo_test_graphs():
        edges = h.edges()
        maximal = brute_maximal_independent_sets(h.n, edges)
        alpha = brute_alpha(h.n, edges)
        want = (
            len({len(s) for s in maximal}) == 1,
            h.n == 0 or (
                not has_isolated_vertices(h)
                and all(_brute_maximal_sizes(h, x) == {alpha} for x in (None, *range(h.n)))
            ),
            all(brute_alpha(h.n, [f for f in edges if f != e]) > alpha for e in edges),
            brute_component_count(h.n, edges) <= 1,
            brute_girth(h.n, edges) >= 4,
        )
        for order in orders:
            g = Graph(h.n, edges)
            got = [None] * len(verdicts)
            for k in order:
                got[k] = verdicts[k](g)
            assert tuple(got) == want, (h, order)
            assert tuple(f(g) for f in verdicts) == want, (h, order)


def test_alpha_and_euler_characteristic_match_oracles():
    for g in _invariant_test_graphs() + [Graph(n) for n in range(11)]:
        sets = brute_independent_sets(g.n, g.edges())
        assert independence_number(g) == max(len(s) for s in sets), g
        chi = independence_euler_characteristic(g)
        assert chi == brute_euler_characteristic(g.n, g.edges()), g
        assert chi == reduced_euler_characteristic(independence_complex(g)), g
    # all 1253 graphs with n <= 7, half of them asked for chi~ first
    for k, g in enumerate(all_graphs(7)):
        want = brute_alpha(g.n, g.edges()), brute_euler_characteristic(g.n, g.edges())
        if k % 2:
            got = independence_number(g), independence_euler_characteristic(g)
        else:
            chi = independence_euler_characteristic(g)
            got = independence_number(g), chi
        assert got == want, g
    # paths and cycles up to 30 vertices, chains of leaf steps, against
    # their independent sets counted by size along the chain
    for n in range(1, 31):
        chains = [(path_graph(n), False)] + ([(cycle_graph(n), True)] if n >= 3 else [])
        for g, cycle in chains:
            counts = chain_independent_set_counts(n, cycle)
            assert independence_number(g) == max(k for k, c in enumerate(counts) if c), g
            chi = sum(c if k % 2 else -c for k, c in enumerate(counts))
            assert independence_euler_characteristic(g) == chi, g
    # alpha(g[S]) is memoized under S and I(g[S]; -1) under ~S in one memo:
    # asked for every vertex mask in either order, each on a fresh graph,
    # both give the brute-force values of the induced subgraph
    rng = random.Random(23)
    graphs = [path_graph(7), cycle_graph(7), disjoint_union(cycle_graph(4), path_graph(3))]
    graphs += [random_graph(rng, 7, p) for p in (0.25, 0.4, 0.6)]
    for h in graphs:
        want = {}
        for s in range(1 << h.n):
            sub = induced_subgraph(h, [v for v in h.vertices() if s >> v & 1])
            want[s] = brute_alpha(sub.n, sub.edges()), -brute_euler_characteristic(sub.n, sub.edges())
        for alpha_first in (True, False):
            g = Graph(h.n, h.edges())
            alpha = partial(_alpha_of, g._nbr_bits, g._memo)
            poly = partial(_poly_of, g._nbr_bits, g._memo)
            if alpha_first:
                got = {s: alpha(s) for s in want}
                got = {s: (a, poly(s)) for s, a in got.items()}
            else:
                got = {s: poly(s) for s in want}
                got = {s: (alpha(s), p) for s, p in got.items()}
            assert got == want, (h, alpha_first)


def test_classifying_a_corpus_leaves_no_reference_cycle(corpus_tf_lines):
    # the recursions hold no reference to themselves, so each graph and its
    # memo are freed by refcount once its record is built, and the cyclic
    # collector finds nothing to free
    gc.collect()
    gc.disable()
    try:
        report, _ = survey(corpus_tf_lines, fields=("q", "f2"))
        assert len(report["records"]) == len(corpus_tf_lines) == 1736
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_edgeless_graphs_need_no_enumeration():
    # Ind of the edgeless graph on n vertices is a simplex with 2^n faces;
    # enumerating them for n = 24 would take minutes
    start = time.perf_counter()
    for n in range(25):
        g = Graph(n)
        assert independence_number(g) == n
        assert independence_euler_characteristic(g) == (-1 if n == 0 else 0)
        assert is_alpha_critical(g)
    assert time.perf_counter() - start < 5.0
