import random
import sys
from functools import reduce
from itertools import combinations, combinations_with_replacement

import pytest

from oracles import (
    SimplicialComplex,
    brute_independent_sets,
    core_of,
    delete_edge,
    delete_set,
    edge_localize,
    face_poset_complement,
    facet_masks,
    independence_complex,
    join,
    link,
    oracle_alpha_critical,
    oracle_cohen_macaulay,
    oracle_doubly_cm,
    oracle_eulerian,
    oracle_faces,
    oracle_vertex_decomposable,
    simplex,
)
from tfgor import (
    GF2,
    GF3,
    GF5,
    RATIONALS,
    FieldSpec,
    Graph,
    build_record,
    complete_graph,
    cycle_graph,
    disjoint_union,
    girth4_planar,
    is_cm_graph,
    is_cohen_macaulay,
    is_gorenstein,
    is_alpha_critical,
    is_gorenstein_graph,
    is_second_power_cm,
    is_triangle_free,
    is_well_covered,
    parse_facets,
    parse_graph6,
    path_graph,
    reduced_betti,
    survey,
)
from tfgor.graphs import _ind_facets, _vertex_decomposable

from conftest import load_corpus

TWO_K2 = disjoint_union(complete_graph(2), complete_graph(2))


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def reisner_loop_no_shortcut(c, field):
    # the criterion as a bare loop, without the purity pre-check
    for f in oracle_faces(c):
        lk = link(c, f)
        d = lk.dim
        betti = reduced_betti(facet_masks(lk), field)
        if any(v for i, v in betti.items() if i < d):
            return False
    return True


def test_cm_examples():
    assert is_cohen_macaulay(facet_masks(independence_complex(cycle_graph(5))), RATIONALS)
    assert not is_cohen_macaulay(facet_masks(independence_complex(cycle_graph(4))), RATIONALS)
    for field in (RATIONALS, GF2, GF3):
        assert is_cohen_macaulay(facet_masks(simplex([0, 1, 2])), field)
    # labels become bit positions by rank, never by value
    assert is_cohen_macaulay(parse_facets("0 7\n7 1000000000000000000\n"), RATIONALS)
    assert not is_cohen_macaulay(parse_facets("0 7\n1000000000000000000\n"), RATIONALS)


def test_cm_void_rejected():
    # the void complex, no faces at all, has no facet masks
    with pytest.raises(ValueError, match="void"):
        is_cohen_macaulay((), RATIONALS)
    with pytest.raises(ValueError, match="void"):
        is_gorenstein((), RATIONALS)


def reisner_family():
    # random complexes, with ground vertices in no face and as cones, and
    # random independence complexes with their edge localizations
    rng = random.Random(71)
    complexes = []
    for i in range(50):
        nv = rng.randint(1, 7)
        gens = [
            tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 4)))))
            for _ in range(rng.randint(1, 5))
        ]
        complexes.append(SimplicialComplex.from_faces(gens))
        # ground vertices in no face: the CM cache is keyed by facets alone
        complexes.append(SimplicialComplex.from_faces(gens, vertices=range(nv + 2)))
        # a cone over it, with one or two apexes: peeled before any ranking
        apexes = simplex(range(nv + 2, nv + 3 + i % 2))
        complexes.append(join(SimplicialComplex.from_faces(gens), apexes))
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        complexes.append(independence_complex(g))
        complexes.extend(
            independence_complex(edge_localize(g, a, b)) for a, b in g.edges()
        )
    return complexes


def test_cm_purity_shortcut_matches_bare_loop():
    for field in (RATIONALS, GF2, GF3):
        for c in reisner_family():
            assert is_cohen_macaulay(facet_masks(c), field) == reisner_loop_no_shortcut(c, field)


def count_ranked(monkeypatch):
    # records the facet masks of every complex handed to reduced_betti by
    # the link walk, with its field
    criteria = sys.modules["tfgor.criteria"]
    real = criteria.reduced_betti
    ranked = []

    def counting(facets, field):
        ranked.append((facets, field))
        return real(facets, field)

    monkeypatch.setattr(criteria, "reduced_betti", counting)
    return ranked


@pytest.mark.parametrize("n, faces, links", [(4, 139, 59), (5, 495, 174)])
def test_cm_ranks_each_distinct_link_once(monkeypatch, n, faces, links):
    # the link walk on facet masks, as a facet file reaches it: Ind(g) spans
    # every vertex of g, so its masks keep g's labels, and so does a link
    g = girth4_planar(n)
    c = independence_complex(g)
    distinct = {
        tuple(sorted(sum(1 << v for v in h) for h in link(c, f).facets))
        for f in oracle_faces(c)
    }
    assert (len(oracle_faces(c)), len(distinct)) == (faces, links)
    ranked = count_ranked(monkeypatch)
    assert is_cohen_macaulay(facet_masks(c), RATIONALS)
    # a rational query ranks over Q alone
    assert {field for _, field in ranked} == {RATIONALS}
    facets = [f for f, _ in ranked]
    assert len(facets) == len(distinct) and set(facets) == distinct


@pytest.mark.parametrize(
    "g", [girth4_planar(6), disjoint_union(cycle_graph(5), cycle_graph(5))], ids=["planar6", "2C5"]
)
def test_each_walk_decides_each_mask_once(monkeypatch, g):
    # the vertex-decomposability and Eulerian walks keep their verdicts in
    # one table each, looked up before any mask is decided: over a record
    # in two fields, neither decides a mask twice
    graphs_module = sys.modules["tfgor.graphs"]
    decided = {}
    for name in ("_vd_connected", "_eulerian_connected"):
        real, masks = getattr(graphs_module, name), decided.setdefault(name, [])

        def counting(h, s, real=real, masks=masks):
            masks.append(s)
            return real(h, s)

        monkeypatch.setattr(graphs_module, name, counting)
    rec = build_record(0, g, ("q", "f2"))
    assert rec["gorenstein"] == rec["second_power_cm"] == {"q": True, "f2": True}
    for name, masks in decided.items():
        assert masks and len(masks) == len(set(masks)), name


def test_record_over_q_and_f2_ranks_nothing_over_q(monkeypatch):
    # girth4_planar(5) and its edge localizations are vertex decomposable,
    # so its record ranks nothing, over q or over f2
    ranked = count_ranked(monkeypatch)
    g = girth4_planar(5)
    rec = build_record(0, g, ("q", "f2"))
    assert rec["gorenstein"] == rec["second_power_cm"] == {"q": True, "f2": True}
    assert _vertex_decomposable(g, (1 << g.n) - 1) and ranked == []


def test_survey_over_q_ranks_nothing_over_gf2(monkeypatch, corpus_tf_lines):
    # the masks of the corpus that reach the link walk over q are ranked
    # over Q alone
    ranked = count_ranked(monkeypatch)
    report, skipped = survey(corpus_tf_lines, fields=("q",))
    assert skipped == [] and report["counterexamples"] == []
    assert ranked and {field for _, field in ranked} == {RATIONALS}


def walk_verdicts(g, field):
    # the three graph verdicts from the link walk on facet masks alone, the
    # edge localizations as vertex masks of g
    full, nbr = (1 << g.n) - 1, g._nbr_bits
    cm = is_cohen_macaulay(_ind_facets(g), field)
    localized = all(
        is_cohen_macaulay(_ind_facets(g, full & ~(nbr[a] | nbr[b])), field) for a, b in g.edges()
    )
    spcm = is_triangle_free(g) and is_alpha_critical(g) and cm and localized
    return cm, is_gorenstein(_ind_facets(g), field), spcm


def mask_walk_graphs():
    # random graphs, disjoint unions (joins of their complexes) and isolated
    # vertices (cones)
    rng = random.Random(61)
    graphs = [random_graph(rng, rng.randint(0, 9), p) for p in (0.15, 0.3, 0.45) for _ in range(40)]
    graphs += [
        disjoint_union(random_graph(rng, rng.randint(1, 5)), random_graph(rng, rng.randint(2, 5)))
        for _ in range(30)
    ]
    graphs += [disjoint_union(g, Graph(rng.randint(1, 2))) for g in graphs[::7]]
    graphs += [TWO_K2, disjoint_union(cycle_graph(5), TWO_K2)]
    graphs += [disjoint_union(cycle_graph(4), cycle_graph(5)), WHISKERED_C4_COMPLEMENT]
    graphs += [girth4_planar(3), disjoint_union(girth4_planar(3), complete_graph(2))]
    return graphs


def graph_verdicts(g, field):
    return is_cm_graph(g, field), is_gorenstein_graph(g, field), is_second_power_cm(g, field)


@pytest.mark.parametrize("field", [RATIONALS, GF2, GF3], ids=str)
def test_mask_walk_matches_link_walk(field):
    # components, cone apexes, the certificate and the Eulerian walk give the
    # verdicts of the link walk on facet masks
    positives = [0, 0, 0]
    for g in mask_walk_graphs():
        got = graph_verdicts(g, field)
        assert got == walk_verdicts(Graph(g.n, g.edges()), field), g
        positives = [p + v for p, v in zip(positives, got)]
    assert positives[0] >= 100 and positives[1] >= 80 and positives[2] >= 80


def test_mask_walk_matches_oracles():
    # the dense face-by-face oracles, on graphs small enough for them; the
    # Eulerian walk reads no purity, which a Cohen-Macaulay complex has
    graphs_module = sys.modules["tfgor.graphs"]
    graphs = [g for g in mask_walk_graphs() if g.n <= 8][::2]
    assert len(graphs) >= 70
    eulerian = 0
    for g in graphs:
        c = independence_complex(g)
        if is_well_covered(g):  # the core: Ind of the non-isolated vertices
            got = graphs_module._eulerian(g, sum(1 << v for v, b in enumerate(g._nbr_bits) if b))
            assert got == oracle_eulerian(core_of(c)), g
            eulerian += got
        for field, char in FIELD_CHARS:
            assert is_cm_graph(g, field) == oracle_cohen_macaulay(c, char), (g, field)
            want = gorenstein_reference(c, char)
            assert is_gorenstein_graph(g, field) == want, (g, field)
    assert eulerian >= 20


def test_verdicts_without_the_certificate_come_from_the_link_walk(monkeypatch):
    # with the vertex-decomposition certificate failing everywhere, every
    # Cohen-Macaulay verdict falls back to ranking homology, and none changes
    criteria = sys.modules["tfgor.criteria"]
    graphs = mask_walk_graphs()
    fields = (RATIONALS, GF2, GF3)
    want = {(i, field): graph_verdicts(g, field) for i, g in enumerate(graphs) for field in fields}
    ranked = count_ranked(monkeypatch)
    monkeypatch.setattr(criteria, "_vertex_decomposable", lambda g, s: False)
    for i, h in enumerate(graphs):
        g = Graph(h.n, h.edges())  # a fresh graph, its memo empty
        for field in fields:
            assert graph_verdicts(g, field) == want[i, field], (g, field)
    assert len(ranked) >= 100


@pytest.mark.parametrize("field", [RATIONALS, GF2, GF3], ids=["q", "f2", "f3"])
def test_cm_verdict_is_exact_where_the_certificate_misses(monkeypatch, field):
    # H_U`{_d is vertex decomposable by the definition, but the certificate,
    # which takes one shedding vertex per mask, finds no decomposition; the
    # link walk decides it, as on its facets
    g = parse_graph6("H_U`{_d")
    assert (g.n, g.edge_count()) == (9, 14)
    assert oracle_vertex_decomposable(independence_complex(g))
    assert not _vertex_decomposable(g, (1 << g.n) - 1)
    ranked = count_ranked(monkeypatch)
    assert is_cm_graph(g, field) and ranked
    assert is_cohen_macaulay(_ind_facets(g), field)


def test_eulerian_examples():
    assert oracle_eulerian(independence_complex(complete_graph(2)))
    assert not oracle_eulerian(independence_complex(complete_graph(3)))
    assert oracle_eulerian(independence_complex(TWO_K2))
    assert oracle_eulerian(SimplicialComplex.from_faces([]))
    assert not oracle_eulerian(SimplicialComplex.from_faces([(0, 1), (2,)]))


def test_gorenstein_complex_examples():
    assert is_gorenstein(facet_masks(independence_complex(cycle_graph(5))), RATIONALS)
    for field in (RATIONALS, GF2, GF3):
        assert not is_gorenstein(facet_masks(independence_complex(complete_graph(3))), field)
    # single point: the core is the empty-face complex
    assert is_gorenstein(facet_masks(independence_complex(complete_graph(1))), RATIONALS)


def test_doubly_cm_examples():
    # the oracle that criterion 6 of the acceptance suite relies on
    assert oracle_doubly_cm(independence_complex(cycle_graph(5)), 0)
    assert not oracle_doubly_cm(independence_complex(cycle_graph(4)), 0)
    assert not oracle_doubly_cm(simplex([0]), 0)
    assert not oracle_doubly_cm(simplex([0, 1, 2]), 0)


def test_cm_graph_examples():
    assert is_cm_graph(cycle_graph(5), RATIONALS)
    assert not is_cm_graph(cycle_graph(4), RATIONALS)
    for n in (1, 2, 4):
        assert is_cm_graph(complete_graph(n), RATIONALS)
    assert is_cm_graph(Graph(0), RATIONALS)


def test_gorenstein_graph_examples():
    assert is_gorenstein_graph(TWO_K2, RATIONALS)
    assert is_gorenstein_graph(girth4_planar(3), RATIONALS)
    assert not is_gorenstein_graph(cycle_graph(7), RATIONALS)
    assert not is_gorenstein_graph(path_graph(4), RATIONALS)
    assert not is_gorenstein_graph(cycle_graph(6), RATIONALS)
    assert is_gorenstein_graph(complete_graph(1), RATIONALS)


def test_well_covered_shortcut_matches_complex_path(corpus_tf_graphs):
    # is_cm_graph and is_gorenstein_graph reject a graph that is not
    # well-covered before building Ind(g); the complex path must agree
    rng = random.Random(29)
    graphs = list(corpus_tf_graphs)
    graphs += [random_graph(rng, rng.randint(0, 8), p) for p in (0.2, 0.4, 0.6) for _ in range(40)]
    positives = 0
    for field in (RATIONALS, GF2):
        for g in graphs:
            c = independence_complex(g)
            cm = is_cm_graph(g, field)
            assert cm == is_cohen_macaulay(facet_masks(c), field), g
            assert is_gorenstein_graph(g, field) == is_gorenstein(facet_masks(c), field), g
            positives += cm
    assert positives >= 20


FIELD_CHARS = ((RATIONALS, 0), (GF2, 2), (GF3, 3))


def gorenstein_reference(c, char):
    # the definition: the core is Eulerian and Cohen-Macaulay
    core = core_of(c)
    return oracle_eulerian(core) and oracle_cohen_macaulay(core, char)


# Ind of this graph is the 4-cycle 0-1-2-3 with the edge 3-4 attached
WHISKERED_C4_COMPLEMENT = Graph(5, [(0, 2), (1, 3), (0, 4), (1, 4), (2, 4)])


def sphere(labels):
    # the boundary of the simplex on labels
    return SimplicialComplex.from_faces(combinations(labels, len(labels) - 1))


def gorenstein_family():
    # random complexes, as cones and with ground vertices in no face
    rng = random.Random(53)
    complexes = []
    for i in range(40):
        nv = rng.randint(1, 7)
        gens = [
            tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 4)))))
            for _ in range(rng.randint(1, 5))
        ]
        base = SimplicialComplex.from_faces(gens)
        complexes.append(base)
        # a cone with one or two apexes, and ground vertices in no face
        complexes.append(join(base, simplex(range(nv, nv + 1 + i % 2))))
        complexes.append(SimplicialComplex.from_faces(gens, vertices=range(nv + 2)))
    return complexes


def test_gorenstein_matches_eulerian_cm_core(rp2):
    complexes = gorenstein_family()
    two_circles = SimplicialComplex.from_faces(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    disk = SimplicialComplex.from_faces([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)])
    # Cohen-Macaulay with top Betti number 1, yet not Gorenstein*
    whisker = independence_complex(WHISKERED_C4_COMPLEMENT)
    assert is_cohen_macaulay(facet_masks(rp2), RATIONALS) and not oracle_eulerian(rp2)
    assert oracle_eulerian(two_circles)
    assert not is_cohen_macaulay(facet_masks(two_circles), RATIONALS)
    assert is_cohen_macaulay(facet_masks(disk), RATIONALS) and not oracle_eulerian(disk)
    assert is_cohen_macaulay(facet_masks(whisker), RATIONALS)
    assert reduced_betti(facet_masks(whisker), RATIONALS)[1] == 1
    spheres = [sphere(range(k)) for k in (2, 3, 4)]
    complexes += [rp2, two_circles, disk, whisker, SimplicialComplex.from_faces([]), *spheres]
    complexes += [join(spheres[0], spheres[1]), join(spheres[1], spheres[1])]
    complexes += [join(spheres[0], simplex([0, 1])), join(spheres[2], simplex([0]))]
    positives = 0
    for field, char in FIELD_CHARS:
        for c in complexes:
            expected = gorenstein_reference(c, char)
            assert is_gorenstein(facet_masks(c), field) == expected, (c, field)
            positives += expected
    assert positives >= 250


def test_gorenstein_graph_matches_eulerian_cm_core():
    rng = random.Random(59)
    graphs = [random_graph(rng, rng.randint(0, 9), p) for p in (0.2, 0.35, 0.5) for _ in range(20)]
    graphs += [Graph(0), Graph(3), disjoint_union(cycle_graph(5), Graph(2))]
    graphs += [disjoint_union(TWO_K2, complete_graph(1)), girth4_planar(3)]
    graphs += [WHISKERED_C4_COMPLEMENT]
    positives = 0
    for field, char in FIELD_CHARS:
        for g in graphs:
            expected = gorenstein_reference(independence_complex(g), char)
            assert is_gorenstein_graph(g, field) == expected, g
            positives += expected
    assert positives >= 80


def rp2_joins(rp2):
    # RP^2 and its joins with S^0, a point and a 3-cycle: 2-torsion makes
    # each Cohen-Macaulay over Q and not over GF(2)
    return [rp2] + [join(rp2, d) for d in (sphere([0, 1]), simplex([0]), sphere([0, 1, 2]))]


@pytest.fixture(scope="module")
def reference_cases(rp2):
    # each complex with its references over Q and over GF(2): Cohen-Macaulay
    # by the dense oracle (over Q also by the bare loop), and Gorenstein by
    # the definition
    torsion = rp2_joins(rp2)
    cases = []
    for c in torsion + reisner_family() + gorenstein_family():
        refs = {}
        for field, char in ((RATIONALS, 0), (GF2, 2)):
            refs[field] = oracle_cohen_macaulay(c, char), gorenstein_reference(c, char)
        assert reisner_loop_no_shortcut(c, RATIONALS) == refs[RATIONALS][0]
        cases.append((c, refs))
    assert all(refs[RATIONALS][0] and not refs[GF2][0] for _, refs in cases[: len(torsion)])
    return cases


@pytest.mark.parametrize("order", [("q",), ("q", "f2"), ("f2", "q")], ids="-".join)
def test_rational_verdicts_match_references_with_the_gf2_lift(reference_cases, order):
    # each query walks the links over its own field, from a memo of its own,
    # so no order of the fields asked for lifts a GF(2) verdict to Q
    for c, refs in reference_cases:
        masks = facet_masks(c)
        for field in map(FieldSpec.from_label, order):
            got = is_cohen_macaulay(masks, field), is_gorenstein(masks, field)
            assert got == refs[field], (c, field)


def test_verdicts_over_gf_p_are_zero_or_the_rational_one(reference_cases):
    # universal coefficients: dim H~_i(X; GF(p)) >= dim H~_i(X; Q), and chi~
    # needs no field, so a nonzero verdict over GF(p) equals the rational
    # one; that one is read off the oracles, as Gorenstein* is
    # Cohen-Macaulay and Eulerian (Stanley II.5.1)
    criteria = sys.modules["tfgor.criteria"]
    torsion = agree = 0
    for c, refs in reference_cases:
        masks = facet_masks(c)
        rational = 1 + oracle_eulerian(c) if refs[RATIONALS][0] else 0
        assert criteria._cm(masks, RATIONALS, {}) == rational, c
        for field in (GF2, GF3, GF5):
            verdict = criteria._cm(masks, field, {})
            assert verdict in (0, rational), (c, field)
            torsion += rational and not verdict
            agree += verdict and verdict == rational
    assert torsion >= 4 and agree >= 900


def test_gorenstein_guards_run_before_the_link_walk(monkeypatch, corpus_tf_graphs):
    # the Euler characteristic and well-coveredness reject a graph before
    # the link walk, and so before any homology; the corpus graphs are
    # connected with n >= 2, so Ind(g) is its own core
    criteria = sys.modules["tfgor.criteria"]

    def no_walk(facets, field):
        raise AssertionError("walked the links")

    monkeypatch.setattr(criteria, "_cm", no_walk)
    rejected = 0
    for g in corpus_tf_graphs:
        indep = brute_independent_sets(g.n, g.edges())
        alpha = max(map(len, indep))
        chi = sum(1 if len(t) % 2 else -1 for t in indep)
        maximal = [t for t in indep if all(set(t) & {v, *g.neighbors(v)} for v in g.vertices())]
        if chi != (1 if alpha % 2 else -1) or len({len(t) for t in maximal}) > 1:
            for field in (RATIONALS, GF2):
                assert not is_gorenstein_graph(g, field), g
            rejected += 1
    assert rejected >= 1700


def test_second_power_localizes_every_edge(monkeypatch):
    # each edge ab hands the vertex mask V minus N(a) and N(b) to the
    # Cohen-Macaulay walk on vertex masks; the verdicts alone cannot tell,
    # since no small graph has a non-Cohen-Macaulay localization
    criteria = sys.modules["tfgor.criteria"]
    real = criteria._cm_graph
    asked = set()

    def recording(g, s, field):
        asked.add(s)
        return real(g, s, field)

    monkeypatch.setattr(criteria, "_cm_graph", recording)
    for field in (RATIONALS, GF2):
        # fresh graphs per field: a graph memoizes the masks it has decided
        for g in (complete_graph(2), cycle_graph(5), girth4_planar(3), girth4_planar(4)):
            g = Graph(g.n, g.edges())
            asked.clear()
            assert is_second_power_cm(g, field)
            for a, b in g.edges():
                closed = {a, b, *g.neighbors(a), *g.neighbors(b)}
                assert sum(1 << v for v in g.vertices() if v not in closed) in asked, (a, b)


def test_records_enumerate_maximal_independent_sets_once(monkeypatch, corpus_tf_lines):
    # well-coveredness, W2 and alpha-criticality need no field and no
    # maximal independent set: a record over three fields of a graph that
    # is not well-covered, which no field's homology can rescue, enumerates
    # none, whether 2 alpha > n + k (k isolated vertices) rejects it or the
    # purity walk does
    graphs = sys.modules["tfgor.graphs"]
    real = graphs._extend
    calls = []

    def counting(nonadj, chosen, cand, excl):
        calls.append(cand)
        return real(nonadj, chosen, cand, excl)

    monkeypatch.setattr(graphs, "_extend", counting)
    settled = {"bound": 0, "walk": 0}
    for i, line in enumerate(corpus_tf_lines):
        if is_well_covered(parse_graph6(line)):
            continue
        g = parse_graph6(line)  # a fresh graph, its memo empty
        calls.clear()
        rec = build_record(i, g, ("q", "f2", "f3"))
        assert not calls, line
        assert not rec["well_covered"] and not rec["w2"]
        settled["bound" if 2 * rec["alpha"] > g.n + g._nbr_bits.count(0) else "walk"] += 1
    assert settled == {"bound": 1285, "walk": 386}


@pytest.mark.parametrize(
    "lines", ["connected_trifree_2to9.g6", "connected_girth5_1to10.g6"], ids=["trifree", "girth5"]
)
def test_records_without_the_rejection_bounds_are_the_same(monkeypatch, lines):
    # with Favaron's bound and the alpha-critical bounds never rejecting,
    # every verdict comes from the purity walk and the edge localizations,
    # and no record changes
    graphs = sys.modules["tfgor.graphs"]
    lines = load_corpus(lines)
    fields = ("q", "f2")
    want = [build_record(i, parse_graph6(ln), fields, ln) for i, ln in enumerate(lines)]
    monkeypatch.setattr(graphs, "_not_well_covered", lambda g, alpha: False)
    monkeypatch.setattr(graphs, "_not_alpha_critical", lambda g, alpha: False)
    got = [build_record(i, parse_graph6(ln), fields, ln) for i, ln in enumerate(lines)]
    assert got == want


@pytest.mark.parametrize(
    "g, enumerated",
    [(cycle_graph(5), 0), (girth4_planar(4), 0), (parse_graph6("F@Ue?"), 1)],
    ids=["c5", "planar4", "F@Ue?"],
)
def test_records_enumerate_each_vertex_mask_once(monkeypatch, g, enumerated):
    # the facet masks of a vertex mask need no field, and a mask that the
    # purity walk and vertex decomposability certify needs none at all:
    # over three fields C5 and girth4_planar(4) enumerate no maximal
    # independent set, and F@Ue?, well-covered but not in W2, enumerates
    # its whole vertex set once, for the link walk
    graphs = sys.modules["tfgor.graphs"]
    real = graphs._extend
    searched = []

    def counting(nonadj, chosen, cand, excl):
        if not chosen:  # a call from _ind_facets, not a Bron-Kerbosch branch
            searched.append(cand)
        return real(nonadj, chosen, cand, excl)

    monkeypatch.setattr(graphs, "_extend", counting)
    g = Graph(g.n, g.edges())  # a fresh graph, its memo empty
    rec = build_record(0, g, ("q", "f2", "f3"))
    assert rec["well_covered"] and rec["consistent"]
    assert len(searched) == len(set(searched)) == enumerated


def test_gorenstein_graph_with_isolated_vertices_uses_core():
    # adding an isolated vertex cones the complex; the core is unchanged
    g = disjoint_union(complete_graph(1), cycle_graph(5))
    assert is_gorenstein_graph(g, RATIONALS)
    h = disjoint_union(complete_graph(1), cycle_graph(4))
    assert not is_gorenstein_graph(h, RATIONALS)


def test_second_power_examples():
    assert is_second_power_cm(cycle_graph(5), RATIONALS)
    assert not is_second_power_cm(complete_graph(3), RATIONALS)
    assert not is_second_power_cm(cycle_graph(4), RATIONALS)


def test_second_power_matches_relabeled_localizations():
    # the definition: edge localizations as relabeled graphs, alpha-criticality
    # by edge deletion, Cohen-Macaulayness by the dense face-by-face oracle
    def alpha(h):
        return max(map(len, brute_independent_sets(h.n, h.edges())))

    rng = random.Random(37)
    graphs = [random_graph(rng, rng.randint(1, 8), p) for p in (0.15, 0.3, 0.5) for _ in range(25)]
    graphs += [girth4_planar(3), girth4_planar(4)] + [cycle_graph(n) for n in range(4, 10)]
    # isolated vertices make Ind(g) a cone over Ind of the rest
    graphs += [disjoint_union(cycle_graph(n), Graph(2)) for n in (5, 7)]
    positives = 0
    for field, char in ((RATIONALS, 0), (GF2, 2)):
        for g in graphs:
            expected = (
                is_triangle_free(g)
                and all(alpha(delete_edge(g, e)) > alpha(g) for e in g.edges())
                and oracle_cohen_macaulay(independence_complex(g), char)
                and all(
                    oracle_cohen_macaulay(independence_complex(edge_localize(g, a, b)), char)
                    for a, b in g.edges()
                )
            )
            assert is_second_power_cm(g, field) == expected, g
            positives += expected
    assert positives >= 40


def test_localizations_on_disjoint_unions_match_oracles():
    # each edge localization is decided inside its own component C, as
    # alpha(C - N(a) - N(b)) = alpha(C) - 1 and the Cohen-Macaulayness of
    # C - N(a) - N(b); on unions of small graphs, isolated vertices and
    # triangles included, both verdicts agree with the definitions
    rng = random.Random(41)
    parts = [Graph(1), complete_graph(2), path_graph(3), complete_graph(3), cycle_graph(4),
             cycle_graph(5)] + [random_graph(rng, rng.randint(2, 5), 0.5) for _ in range(4)]
    graphs = [disjoint_union(a, b) for a, b in combinations_with_replacement(parts, 2)]
    graphs += [reduce(disjoint_union, rng.sample(parts, 3)) for _ in range(12)]
    positives = [0, 0, 0]
    for g in graphs:
        critical = oracle_alpha_critical(g)
        assert is_alpha_critical(g) == critical, g
        positives[0] += critical
        for i, (field, char) in enumerate(((RATIONALS, 0), (GF2, 2)), start=1):
            expected = (
                is_triangle_free(g)
                and critical
                and oracle_cohen_macaulay(independence_complex(g), char)
                and all(
                    oracle_cohen_macaulay(independence_complex(edge_localize(g, a, b)), char)
                    for a, b in g.edges()
                )
            )
            assert is_second_power_cm(g, field) == expected, (g, field)
            positives[i] += expected
    assert positives[0] >= 10 and positives[1] == positives[2] >= 3, positives


def test_localizations_grow_linearly_with_the_components(monkeypatch):
    # alpha-criticality and the second-power criterion on k disjoint
    # pentagons: each localization is split and solved inside its own
    # component, so the component floods and the memoized alpha masks
    # double, not quadruple, when k doubles
    graphs_module = sys.modules["tfgor.graphs"]
    real_flood = graphs_module._flood

    def cost(k):
        g = reduce(disjoint_union, [cycle_graph(5)] * k)
        floods = []

        def counting(*args):
            floods.append(1)
            return real_flood(*args)

        with monkeypatch.context() as patch:
            patch.setattr(graphs_module, "_flood", counting)
            assert is_alpha_critical(g) and is_second_power_cm(g, RATIONALS)
        return len(floods), sum(type(key) is int for key in g._memo)

    (floods, masks), (floods2, masks2) = cost(8), cost(16)
    assert floods2 <= 2.5 * floods and masks2 <= 2.5 * masks, (floods, floods2, masks, masks2)


def theorem_record(g):
    # a record over q, and whether g is triangle-free (girth null, a
    # forest, or at least 4) and in the equivalence's hypothesis
    rec = build_record(0, g, ("q",))
    triangle_free = rec["girth"] is None or rec["girth"] >= 4
    return rec, triangle_free, triangle_free and rec["no_isolated"]


def test_record_theorem_c5():
    rec, triangle_free, in_hypothesis = theorem_record(cycle_graph(5))
    assert triangle_free and rec["no_isolated"] and in_hypothesis
    assert rec["w2"] and rec["gorenstein"]["q"] and rec["second_power_cm"]["q"]
    assert rec["consistent"]


def test_record_theorem_c4():
    rec, _, in_hypothesis = theorem_record(cycle_graph(4))
    assert in_hypothesis
    assert not rec["w2"] and not rec["gorenstein"]["q"] and not rec["second_power_cm"]["q"]
    assert rec["consistent"]


def test_record_theorem_girth4_planar_4():
    rec, _, in_hypothesis = theorem_record(girth4_planar(4))
    assert in_hypothesis and rec["consistent"]
    assert rec["w2"] and rec["gorenstein"]["q"] and rec["second_power_cm"]["q"]


def test_record_theorem_k3_out_of_hypothesis():
    rec, triangle_free, in_hypothesis = theorem_record(complete_graph(3))
    assert not triangle_free and not in_hypothesis
    assert rec["w2"] and not rec["gorenstein"]["q"]
    assert rec["consistent"]


def test_record_theorem_isolated_vertex_out_of_hypothesis():
    rec, _, in_hypothesis = theorem_record(disjoint_union(complete_graph(1), complete_graph(2)))
    assert not rec["no_isolated"] and not in_hypothesis
    assert rec["consistent"]


def test_record_of_the_rp2_subdivision_graph(rp2):
    # Ind(G) is sd(RP^2): pure and in W2, but chi~ = 0 fails the Eulerian
    # condition, so G is Gorenstein over no field; G has triangles, so it
    # is outside the hypothesis
    rec = build_record(0, face_poset_complement(rp2), ("q", "f2", "f3"))
    assert (rec["n"], rec["edge_count"], rec["alpha"], rec["girth"], rec["euler_char"]) == (
        31, 375, 3, 3, 0,
    )
    assert rec["well_covered"] and rec["w2"] and not rec["alpha_critical"]
    assert rec["gorenstein"] == rec["second_power_cm"] == {"q": False, "f2": False, "f3": False}
    assert rec["consistent"]


def test_cm_verdicts_of_the_rp2_subdivision_graph(monkeypatch, rp2):
    # sd(RP^2) is Cohen-Macaulay over q and f3, not over f2, so it is not
    # vertex decomposable: the certificate gives up and the link walk
    # decides.  A certificate that tried every shedding vertex searched
    # deletion masks for CPU minutes here, so its visits are capped
    graphs_module = sys.modules["tfgor.graphs"]
    real, visits = graphs_module._vd_connected, []

    def capped(h, s):
        visits.append(s)
        if len(visits) > 1000:
            raise RuntimeError("the certificate visited more than 1000 masks")
        return real(h, s)

    monkeypatch.setattr(graphs_module, "_vd_connected", capped)
    g = face_poset_complement(rp2)
    assert [is_cm_graph(g, field) for field in (RATIONALS, GF2, GF3)] == [True, False, True]


def test_record_decides_w2_once_over_three_fields(monkeypatch):
    # W2 needs no field: a record over three fields asks for it once,
    # wherever the package calls it from
    calls = []
    real = sys.modules["tfgor.graphs"].is_in_w2

    def counted(g):
        calls.append(g)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("tfgor.") and getattr(module, "is_in_w2", None) is real:
            monkeypatch.setattr(module, "is_in_w2", counted)
    rec = build_record(0, cycle_graph(5), ("q", "f2", "f3"))
    assert rec["w2"] and rec["consistent"] and len(calls) == 1


def test_cm_implies_well_covered_random():
    from tfgor import is_well_covered

    rng = random.Random(83)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        if is_cm_graph(g, RATIONALS):
            assert is_well_covered(g)


def test_gorenstein_rp2_complex_depends_on_characteristic(rp2):
    # desk-scale stand-in for characteristic dependence: the projective
    # plane is Cohen-Macaulay except in characteristic 2
    assert is_cohen_macaulay(facet_masks(rp2), RATIONALS)
    assert is_cohen_macaulay(facet_masks(rp2), GF3)
    assert not is_cohen_macaulay(facet_masks(rp2), GF2)


def test_gorenstein_k1_k2_c5_family():
    for g in (complete_graph(1), complete_graph(2), cycle_graph(5),
              girth4_planar(3), girth4_planar(4)):
        assert is_gorenstein_graph(g, RATIONALS)


def test_face_deletion_stays_cm_for_gorenstein():
    for g in (cycle_graph(5), TWO_K2, girth4_planar(3)):
        c = independence_complex(g)
        assert is_gorenstein(facet_masks(c), RATIONALS)
        for f in oracle_faces(c):
            assert is_cohen_macaulay(facet_masks(delete_set(c, f)), RATIONALS)
