import random
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from oracles import (
    SimplicialComplex,
    core_of,
    delete_set,
    delete_vertex,
    facet_masks,
    independence_complex,
    induced_subgraph,
    is_cone,
    is_pure,
    join,
    link,
    localize,
    localized_vertices,
    oracle_faces,
    read_facets,
    reduced_euler_characteristic,
    restrict,
    simplex,
)
from tfgor import (
    GF2,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    parse_facets,
    reduced_betti,
)
from tfgor.homology import _boundaries


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def faces_by_size(facets):
    """The face masks that reduced_betti ranks, one sorted list per size
    0..dim+1, from the boundary maps it walks top down."""
    return [[0]] + [sorted(faces) for faces, _ in reversed(list(_boundaries(facets)))]


def f_vector(c):
    """Face counts (f_-1, f_0, ..., f_dim) of the face masks that
    reduced_betti ranks."""
    return tuple(map(len, faces_by_size(facet_masks(c))))


def apexes(c):
    """The mask of the vertices in every facet, relabeled by rank."""
    return reduce(and_, facet_masks(c))


def relabeled(c, labels):
    """Map a complex on 0..k-1 through the label tuple."""
    return SimplicialComplex(
        (labels[v] for v in c.vertices),
        (tuple(sorted(labels[v] for v in f)) for f in c.facets),
    )


def test_independence_complex_c5():
    c = independence_complex(cycle_graph(5))
    assert f_vector(c) == (1, 5, 5)
    assert c.dim == 1
    assert c.facets == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def test_independence_complex_k3_k2():
    assert f_vector(independence_complex(complete_graph(3))) == (1, 3)
    assert f_vector(independence_complex(complete_graph(2))) == (1, 2)


def test_independence_complex_dimension_is_alpha_minus_one():
    rng = random.Random(3)
    from tfgor import independence_number

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        assert independence_complex(g).dim == independence_number(g) - 1


def test_faces():
    # sorted masks per size; labels become bits by rank
    assert faces_by_size(facet_masks(simplex([0, 1]))) == [[0], [0b01, 0b10], [0b11]]
    assert faces_by_size(facet_masks(simplex([5, 10**18]))) == [[0], [0b01, 0b10], [0b11]]
    assert faces_by_size(facet_masks(independence_complex(complete_graph(3)))) == [[0], [1, 2, 4]]
    assert sum(f_vector(independence_complex(cycle_graph(5)))) == 11


def test_f_vector():
    assert f_vector(simplex([0, 1, 2])) == (1, 3, 3, 1)
    assert f_vector(SimplicialComplex.from_faces([])) == (1,)
    # the void complex has no facet masks, and no homology
    assert facet_masks(SimplicialComplex.void()) == ()
    with pytest.raises(ValueError, match="void"):
        reduced_betti((), GF2)


def test_link():
    dc5 = independence_complex(cycle_graph(5))
    lk = link(dc5, [0])
    assert lk.facets == ((2,), (3,))
    assert lk.vertices == (1, 2, 3, 4)
    assert link(dc5, []) == dc5
    assert link(simplex([0, 1, 2]), [0]) == SimplicialComplex((1, 2), ((1, 2),))
    with pytest.raises(ValueError, match="not a face"):
        link(dc5, [0, 1])


def test_link_is_independence_complex_of_localization():
    rng = random.Random(9)
    from oracles import brute_independent_sets

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        dg = independence_complex(g)
        for s in brute_independent_sets(g.n, g.edges()):
            expected = relabeled(
                independence_complex(localize(g, s)), localized_vertices(g, s)
            )
            got = link(dg, s)
            assert got.facets == expected.facets
            assert set(got.vertices) >= set(expected.vertices)


def test_delete_set():
    dc5 = independence_complex(cycle_graph(5))
    deleted = delete_set(dc5, [0])
    path = induced_subgraph(cycle_graph(5), [1, 2, 3, 4])
    expected = relabeled(independence_complex(path), (1, 2, 3, 4))
    assert deleted == expected
    assert delete_set(dc5, []) == dc5
    assert delete_set(independence_complex(complete_graph(2)), [0]) == \
        SimplicialComplex((1,), ((1,),))
    with pytest.raises(ValueError):
        delete_set(dc5, [9])


def test_delete_vertex_matches_graph_deletion():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        for x in range(g.n):
            labels = tuple(v for v in range(g.n) if v != x)
            expected = relabeled(independence_complex(delete_vertex(g, x)), labels)
            assert delete_set(independence_complex(g), [x]) == expected


def test_restrict():
    dc5 = independence_complex(cycle_graph(5))
    assert restrict(dc5, [0, 2]) == simplex([0, 2])
    assert restrict(dc5, range(5)) == dc5
    assert restrict(dc5, []) == SimplicialComplex.from_faces([])


def test_core():
    dk3 = independence_complex(complete_graph(3))
    assert core_of(dk3) == dk3
    assert not is_cone(dk3)
    full = simplex([0, 1, 2])
    assert core_of(full) == SimplicialComplex.from_faces([])
    assert apexes(full) == 0b111
    assert is_cone(full)


def test_core_trivial_for_graphs_without_isolated_vertices(corpus_tf_lines):
    from tfgor import parse_graph6

    rng = random.Random(1)
    for ln in rng.sample(corpus_tf_lines, 60):
        c = independence_complex(parse_graph6(ln))
        assert core_of(c) == c
        assert apexes(c) == 0


def test_core_removes_isolated_vertex_cones():
    g = disjoint_union(complete_graph(1), complete_graph(2))
    c = independence_complex(g)
    assert apexes(c) == 0b1
    assert core_of(c) == SimplicialComplex((1, 2), ((1,), (2,)))


def test_join_of_two_point_pairs_is_square():
    s0 = independence_complex(complete_graph(2))
    sq = join(s0, s0)
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert sq == independence_complex(two_k2)


def test_join_identity_and_cone():
    c = independence_complex(cycle_graph(5))
    assert join(c, SimplicialComplex.from_faces([])) == c
    coned = join(c, simplex([0]))
    assert is_cone(coned)
    assert coned.vertices == (0, 1, 2, 3, 4, 5)


def test_join_keeps_disjoint_labels():
    a = simplex([0, 1])
    b = simplex([5, 7])
    j = join(a, b)
    assert j.vertices == (0, 1, 5, 7)
    assert j.facets == ((0, 1, 5, 7),)


def test_complex_is_core_join_simplex():
    rng = random.Random(33)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8), rng.choice([0.2, 0.5]))
        c = independence_complex(g)
        rest = tuple(v for v in c.vertices if all(v in f for f in c.facets))
        rebuilt = join(core_of(c), simplex(rest))
        assert set(oracle_faces(rebuilt)) == set(oracle_faces(c))
        assert set(rebuilt.vertices) == set(c.vertices)


def test_reduced_euler_characteristic():
    assert reduced_euler_characteristic(SimplicialComplex.from_faces([])) == -1
    assert reduced_euler_characteristic(independence_complex(cycle_graph(5))) == -1
    assert reduced_euler_characteristic(independence_complex(complete_graph(3))) == 2
    with pytest.raises(ValueError):
        reduced_euler_characteristic(SimplicialComplex.void())


def test_chi_matches_f_vector():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8))
        c = independence_complex(g)
        fv = f_vector(c)
        assert len(oracle_faces(c)) == sum(fv)
        chi = sum((-1) ** i * fv[i + 1] for i in range(-1, c.dim + 1))
        assert chi == reduced_euler_characteristic(c)


def test_is_pure():
    assert is_pure(independence_complex(cycle_graph(5)))
    assert not is_pure(SimplicialComplex.from_faces([(0, 1), (2,)]))
    assert is_pure(SimplicialComplex.from_faces([]))


def test_parse_facets_hollow_triangle():
    assert parse_facets("0 1\n1 2\n0 2\n") == (0b011, 0b101, 0b110)
    # labels become bits by rank
    assert parse_facets("5 10\n10 999\n5 999\n") == (0b011, 0b101, 0b110)


def test_parse_facets_empty_and_comments():
    assert parse_facets("") == (0,)
    assert parse_facets("# comment\n\n# 0 1 2 3\n") == (0,)
    assert parse_facets("# comment\n\n0 1 2\n0 1\n") == (0b111,)
    assert parse_facets("# c\n7 1000000\n1000000 3\n7\n") == (0b101, 0b110)


def test_parse_facets_matches_read_facets_random():
    # comments, blank and non-maximal lines, repeated lines, labels up to
    # 10**6 and files with no faces, against the label-tuple reading
    rng = random.Random(61)
    for _ in range(400):
        labels = rng.sample(range(10**6), rng.randint(1, 9))
        lines = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.15:
                lines.append("# " + " ".join(map(str, rng.sample(labels, 1))))
            elif kind < 0.25:
                lines.append(" " * rng.randint(0, 2))
            else:
                face = rng.sample(labels, rng.randint(1, len(labels)))
                lines.append(" ".join(map(str, face)))
        text = "\n".join(lines) + rng.choice(["", "\n"])
        assert parse_facets(text) == facet_masks(read_facets(text)), text


def test_parse_facets_absorbs_a_large_file_as_the_quadratic_reading():
    # 12,000 lines of 1 to 8 labels from a pool of 20: most lines are
    # absorbed by a larger one, which the indexed absorption finds through
    # the line's rarest vertex, and the rest must all be kept
    rng = random.Random(67)
    pool = rng.sample(range(10**6), 20)
    text = "".join(
        " ".join(map(str, rng.sample(pool, rng.randint(1, 8)))) + "\n" for _ in range(12000)
    )
    got = parse_facets(text)
    assert got == facet_masks(read_facets(text))
    assert 2000 < len(got) < 6000


def test_parse_facets_errors():
    # every error names its line; only ASCII digits make a label
    cases = [
        ("0 1 0\n", "line 1: duplicate"),
        ("0 1\n1 01\n", "line 2: duplicate"),
        ("1_0 10\n", "line 1: malformed"),
        ("0 x\n", "line 1: malformed"),
        ("+0 1\n", "line 1: malformed"),
        ("# c\n\n0 1_0\n", "line 3: malformed"),
        ("\u0661 2\n", "line 1: malformed"),
        ("0 1.0\n", "line 1: malformed"),
        ("0 --1\n", "line 1: malformed"),
        ("0 x -1\n", "line 1: malformed"),
        ("9" * 5000 + "\n", "line 1: malformed"),
        ("0 -1\n", "line 1: negative"),
        ("0 1\n-0 2\n", "line 2: negative"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_facets(text)


def test_parse_facets_rp2_fixture(rp2):
    from conftest import FIXTURES

    assert parse_facets((FIXTURES / "rp2_minimal.facets").read_text()) == facet_masks(rp2)
    assert f_vector(rp2) == (1, 6, 15, 10)
    assert is_pure(rp2) and rp2.dim == 2
    assert reduced_euler_characteristic(rp2) == 0


def test_facet_reconstruction():
    rng = random.Random(55)
    for _ in range(40):
        nv = rng.randint(0, 7)
        gens = [
            tuple(sorted(rng.sample(range(nv), rng.randint(0, nv))))
            for _ in range(rng.randint(0, 6))
        ]
        c = SimplicialComplex.from_faces(gens)
        rebuilt = SimplicialComplex.from_faces(c.facets)
        assert oracle_faces(rebuilt) == oracle_faces(c)
        for f in gens:
            assert f in c


def test_facet_validation():
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex((0, 1, 2), ((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="ground"):
        SimplicialComplex((0, 1), ((0, 2),))
