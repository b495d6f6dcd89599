"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight shared
resource is a single survey of the full triangle-free corpus over the
fields q, f2, f3 with four workers; it is built once per session.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from oracles import (
    SimplicialComplex,
    brute_independent_sets,
    delete_set,
    edge_localize,
    facet_masks,
    independence_complex,
    is_cone,
    localize,
    oracle_betti,
    oracle_betti_snf,
    oracle_doubly_cm,
    oracle_eulerian,
    oracle_faces,
    read_facets,
    reduced_euler_characteristic,
    restrict,
    simplex,
)
from tfgor import (
    GF2,
    GF3,
    RATIONALS,
    complete_graph,
    cycle_graph,
    disjoint_union,
    girth4_planar,
    independence_number,
    is_alpha_critical,
    is_cohen_macaulay,
    is_connected,
    is_gorenstein_graph,
    is_in_w2,
    is_triangle_free,
    is_well_covered,
    parse_graph6,
    path_graph,
    reduced_betti,
    report_to_json,
    survey,
)

# counts per vertex count 2..9, cross-checked against brute-force labeled
# enumeration for n <= 6 by scripts/generate_corpora.py
TF_CORPUS_COUNTS = {2: 1, 3: 1, 4: 3, 5: 6, 6: 19, 7: 59, 8: 267, 9: 1380}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def tf_report(corpus_tf_lines):
    t0 = time.perf_counter()
    report, skipped = survey(corpus_tf_lines, fields=("q", "f2", "f3"), jobs=4)
    elapsed = time.perf_counter() - t0
    assert not skipped
    return report, elapsed


def test_corpus_fixture_is_what_it_claims(corpus_tf_lines):
    """Not a numbered criterion: pin down the fixture corpus itself."""
    per_n = {}
    seen = set()
    for ln in corpus_tf_lines:
        g = parse_graph6(ln)
        assert 2 <= g.n <= 9
        assert is_connected(g) and is_triangle_free(g)
        assert ln not in seen
        seen.add(ln)
        per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == TF_CORPUS_COUNTS
    # recount n <= 5 from scratch: all labeled graphs, dedup by invariant
    # portraits strong enough at this size (degree sequence refinements)
    for n in range(2, 6):
        labeled = set()
        pairs = list(combinations(range(n), 2))
        found = set()
        for code in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if code >> k & 1]
            from tfgor import Graph

            g = Graph(n, edges)
            if not (is_connected(g) and is_triangle_free(g)):
                continue
            portrait = _portrait(g)
            found.add(portrait)
        assert len(found) == TF_CORPUS_COUNTS[n]


def _portrait(g):
    # canonical form by minimum adjacency string over all permutations;
    # fine for n <= 5
    from itertools import permutations

    best = None
    for pi in permutations(range(g.n)):
        bits = tuple(
            1 if g.has_edge(pi[i], pi[j]) else 0
            for j in range(g.n)
            for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    return best


def test_criterion_1_named_graph_verdicts():
    with criterion("1 named-graph-verdicts"):
        t0 = time.perf_counter()
        gorenstein_yes = [
            complete_graph(1),
            complete_graph(2),
            cycle_graph(5),
            disjoint_union(complete_graph(2), complete_graph(2)),
            girth4_planar(3),
            girth4_planar(4),
            girth4_planar(5),
            girth4_planar(6),
        ]
        gorenstein_no = [
            complete_graph(3),
            cycle_graph(4),
            cycle_graph(6),
            cycle_graph(7),
            path_graph(4),
        ]
        for g in gorenstein_yes:
            assert is_gorenstein_graph(g, RATIONALS), g
        for g in gorenstein_no:
            assert not is_gorenstein_graph(g, RATIONALS), g
        assert is_in_w2(complete_graph(3))
        assert not is_in_w2(cycle_graph(4))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"named verdicts took {elapsed:.1f}s"


def test_record_alpha_and_well_covered_match_graph_functions(tf_report):
    """Not a numbered criterion: the survey reads alpha and well_covered off
    the independence complex; they must agree with the graph functions."""
    report, _ = tf_report
    for rec in report["records"]:
        g = parse_graph6(rec["graph6"])
        assert rec["alpha"] == independence_number(g), rec["graph6"]
        assert rec["well_covered"] == is_well_covered(g), rec["graph6"]


def test_criterion_2_exhaustive_theorem_verification(tf_report):
    report, elapsed = tf_report
    with criterion("2 exhaustive-theorem-verification"):
        assert report["summary"]["admitted"] == sum(TF_CORPUS_COUNTS.values())
        assert report["summary"]["counterexamples"] == 0
        assert report["counterexamples"] == []
        for rec in report["records"]:
            q = rec["gorenstein"]["q"]
            assert rec["w2"] == q == rec["second_power_cm"]["q"], rec["graph6"]
        assert elapsed <= 600.0, f"survey took {elapsed:.1f}s"


def test_criterion_3_girth5_classification(corpus_girth5_lines):
    with criterion("3 girth5-classification"):
        report, skipped = survey(
            corpus_girth5_lines,
            filters=("girth-ge-5", "connected"),
            fields=("q",),
            jobs=4,
        )
        assert not skipped
        assert report["summary"]["admitted"] == len(corpus_girth5_lines)
        found = sorted(
            (rec["n"], rec["edge_count"], rec["girth"])
            for rec in report["records"]
            if rec["gorenstein"]["q"]
        )
        # exactly one isolated vertex, one edge, one pentagon
        assert found == [(1, 0, None), (2, 1, None), (5, 5, 5)]
        assert report["summary"]["counterexamples"] == 0


def test_criterion_4_euler_characteristic_law(tf_report):
    report, _ = tf_report
    with criterion("4 euler-characteristic-law"):
        w2_records = [rec for rec in report["records"] if rec["w2"]]
        assert w2_records, "corpus contains W2 graphs"
        for rec in w2_records:
            g = parse_graph6(rec["graph6"])
            c = independence_complex(g)
            assert rec["euler_char"] == (-1) ** (rec["alpha"] - 1)
            assert reduced_euler_characteristic(c) == rec["euler_char"]
            assert oracle_eulerian(c)


def _random_complex(rng, max_vertices=12):
    nv = rng.randint(1, max_vertices)
    gens = [
        tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 5)))))
        for _ in range(rng.randint(1, 8))
    ]
    return SimplicialComplex.from_faces(gens)


def test_criterion_5_homology_oracle_equivalence(corpus_tf_lines, rp2):
    with criterion("5 homology-oracle-equivalence"):
        rng = random.Random(20240501)
        for _ in range(220):
            c = _random_complex(rng)
            assert reduced_betti(facet_masks(c), RATIONALS) == oracle_betti(c, 0)
        for ln in corpus_tf_lines:
            c = independence_complex(parse_graph6(ln))
            assert reduced_betti(facet_masks(c), RATIONALS) == oracle_betti(c, 0), ln
        fixture_set = [
            rp2,
            read_facets("0 1\n1 2\n0 2\n"),
            simplex([0, 1, 2]),
            SimplicialComplex.from_faces([]),
            independence_complex(cycle_graph(5)),
            independence_complex(girth4_planar(3)),
            independence_complex(disjoint_union(complete_graph(2), complete_graph(2))),
        ]
        for c in fixture_set:
            for field in (GF2, GF3):
                assert reduced_betti(facet_masks(c), field) == oracle_betti_snf(c, field.char)
        assert reduced_betti(facet_masks(rp2), GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_betti(facet_masks(rp2), RATIONALS) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_criterion_6_structural_lemma_suite(tf_report):
    report, _ = tf_report
    records = report["records"]
    graphs = {rec["graph6"]: parse_graph6(rec["graph6"]) for rec in records}
    with criterion("6 structural-lemma-suite"):
        # localization of a well-covered graph: well-covered, alpha drops |S|
        for rec in records:
            if not rec["well_covered"]:
                continue
            g = graphs[rec["graph6"]]
            for s in brute_independent_sets(g.n, g.edges()):
                loc = localize(g, s)
                assert is_well_covered(loc)
                assert independence_number(loc) == rec["alpha"] - len(s)

        # W2 closure under localization below alpha
        for rec in records:
            if not rec["w2"]:
                continue
            g = graphs[rec["graph6"]]
            for s in brute_independent_sets(g.n, g.edges()):
                if 0 < len(s) < rec["alpha"]:
                    assert is_in_w2(localize(g, s))

        # Gorenstein complexes equal to their core are doubly Cohen-Macaulay,
        # their cone-restricted deletions are acyclic, and deleting any face
        # leaves a Cohen-Macaulay complex
        for rec in records:
            if not rec["gorenstein"]["q"]:
                continue
            c = independence_complex(graphs[rec["graph6"]])
            assert oracle_doubly_cm(c, 0)
            verts = list(c.vertices)
            for mask in range(1, 1 << len(verts)):
                s = [verts[i] for i in range(len(verts)) if mask >> i & 1]
                if is_cone(restrict(c, s)):
                    deleted = facet_masks(delete_set(c, s))
                    assert not any(reduced_betti(deleted, RATIONALS).values())
            for f in oracle_faces(c):
                assert is_cohen_macaulay(facet_masks(delete_set(c, f)), RATIONALS)

        # edge-localization biconditional on the whole corpus
        for rec in records:
            g = graphs[rec["graph6"]]
            crit = all(
                is_well_covered(edge_localize(g, a, b))
                and independence_number(edge_localize(g, a, b)) == rec["alpha"] - 1
                for a, b in g.edges()
            )
            assert crit == rec["w2"], rec["graph6"]

        # triangle-free W2 members are alpha-critical
        for rec in records:
            if rec["w2"]:
                assert rec["alpha_critical"], rec["graph6"]
                assert is_alpha_critical(graphs[rec["graph6"]])


def test_criterion_7_field_consistency(tf_report):
    report, _ = tf_report
    with criterion("7 field-consistency"):
        assert report["fields"] == ["q", "f2", "f3"]
        for rec in report["records"]:
            assert len(set(rec["gorenstein"].values())) == 1, rec["graph6"]
            assert len(set(rec["second_power_cm"].values())) == 1, rec["graph6"]
            assert rec["consistent"]


def test_criterion_8_determinism_and_parallelism(corpus_tf_lines):
    with criterion("8 determinism-and-parallelism"):
        outputs = []
        for jobs in (1, 4, 4):
            report, skipped = survey(corpus_tf_lines, fields=("q",), jobs=jobs)
            assert not skipped
            outputs.append(report_to_json(report))
        assert outputs[0] == outputs[1] == outputs[2]
