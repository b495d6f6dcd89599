import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    oracle_betti,
    oracle_betti_snf,
    rank_bareiss_dense,
    rank_fraction,
    rank_mod_p_dense,
    smith_diagonal,
)
from tfgor import (
    GF2,
    GF3,
    GF5,
    RATIONALS,
    FieldSpec,
    Graph,
    SimplicialComplex,
    SparseMatrix,
    boundary_matrix,
    complete_graph,
    cycle_graph,
    independence_complex,
    join,
    matrix_rank,
    parse_facets,
    reduced_betti,
    reduced_euler_characteristic,
    simplex,
    is_k_acyclic,
)
from tfgor import BACKEND, _kernels

HOLLOW_TRIANGLE = parse_facets("0 1\n1 2\n0 2\n")


def random_complex(rng, max_vertices=12):
    nv = rng.randint(1, max_vertices)
    gens = [
        tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 5)))))
        for _ in range(rng.randint(1, 8))
    ]
    return SimplicialComplex.from_faces(gens)


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def to_triples(mat):
    return [
        (r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v
    ]


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------


def test_field_spec():
    assert RATIONALS.is_rationals and RATIONALS.label == "q"
    assert GF2.char == 2 and GF2.label == "f2"
    assert FieldSpec.from_label("f5") == GF5
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec.from_label("r7")


# ---------------------------------------------------------------------------
# boundary matrices
# ---------------------------------------------------------------------------


def test_boundary_single_edge():
    c = simplex([0, 1])
    m = boundary_matrix(c, 1, RATIONALS)
    assert (m.nrows, m.ncols) == (2, 1)
    # rows are the vertices (0,), (1,): dropping the smaller vertex keeps
    # (1,) with sign +1, dropping the larger keeps (0,) with sign -1
    assert dict(((r, c_), v) for r, c_, v in m.entries) == {(1, 0): 1, (0, 0): -1}


def test_boundary_degree_minus_one():
    m = boundary_matrix(HOLLOW_TRIANGLE, -1, RATIONALS)
    assert (m.nrows, m.ncols) == (0, 1) and m.entries == ()


def test_boundary_degree_dim_plus_one():
    m = boundary_matrix(HOLLOW_TRIANGLE, 2, RATIONALS)
    assert (m.nrows, m.ncols) == (3, 0)


def test_boundary_vertices_map_to_empty_face():
    m = boundary_matrix(HOLLOW_TRIANGLE, 0, RATIONALS)
    assert (m.nrows, m.ncols) == (1, 3)
    assert all(v == 1 for _, _, v in m.entries)


def test_boundary_out_of_range():
    with pytest.raises(ValueError):
        boundary_matrix(HOLLOW_TRIANGLE, 3, RATIONALS)
    with pytest.raises(ValueError):
        boundary_matrix(SimplicialComplex.void(), 0, RATIONALS)


def test_boundary_composition_is_zero():
    rng = random.Random(77)
    for _ in range(30):
        c = random_complex(rng, 9)
        for i in range(1, c.dim + 1):
            a = boundary_matrix(c, i, RATIONALS).to_dense()
            b = boundary_matrix(c, i + 1, RATIONALS).to_dense()
            if not a or not b or not b[0]:
                continue
            for bi in range(len(a)):
                for bj in range(len(b[0])):
                    assert sum(a[bi][k] * b[k][bj] for k in range(len(b))) == 0


def test_boundary_mod2_entries():
    m = boundary_matrix(HOLLOW_TRIANGLE, 1, GF2)
    assert all(v == 1 for _, _, v in m.entries)


# ---------------------------------------------------------------------------
# matrix_rank
# ---------------------------------------------------------------------------


def test_rank_trivial():
    zero = SparseMatrix(3, 4, ())
    assert matrix_rank(zero, RATIONALS) == 0
    ident = SparseMatrix(3, 3, ((0, 0, 1), (1, 1, 1), (2, 2, 1)))
    assert matrix_rank(ident, RATIONALS) == 3
    assert matrix_rank(ident, GF2) == 3


def test_rank_hollow_triangle_boundary():
    m = boundary_matrix(HOLLOW_TRIANGLE, 1, RATIONALS)
    assert matrix_rank(m, RATIONALS) == 2


def test_rank_mod_p_drops_entries_divisible_by_p():
    m = SparseMatrix(2, 2, ((0, 0, 2), (1, 1, 4)))
    assert matrix_rank(m, RATIONALS) == 2
    assert matrix_rank(m, GF2) == 0
    assert matrix_rank(m, GF3) == 2


def test_sparse_matrix_validation():
    with pytest.raises(ValueError, match="zero"):
        SparseMatrix(1, 1, ((0, 0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ValueError, match="range"):
        SparseMatrix(1, 1, ((0, 1, 1),))
    for v in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="not an integer"):
            SparseMatrix(1, 1, ((0, 0, v),))


def test_rank_matches_dense_oracles_random():
    rng = random.Random(101)
    for _ in range(120):
        nr, nc = rng.randint(0, 7), rng.randint(0, 7)
        mat = [
            [rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        m = SparseMatrix(nr, nc, tuple(to_triples(mat)))
        assert matrix_rank(m, RATIONALS) == rank_fraction(mat)
        assert matrix_rank(m, RATIONALS) == rank_bareiss_dense(mat)
        for p in (2, 3, 5):
            assert matrix_rank(m, FieldSpec(p)) == rank_mod_p_dense(mat, p)
    # sparse and up to 30x30, made rank-deficient by appending integer
    # combinations of earlier columns, so one column is reduced many times
    # and the fraction-free kernel divides out contents; each matrix is
    # also checked with its columns permuted
    for _ in range(20):
        nr, nbase = rng.randint(10, 30), rng.randint(4, 16)
        cols = [
            [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.15 else 0 for _ in range(nr)]
            for _ in range(nbase)
        ]
        ncols = rng.randint(nbase + 4, 30)
        while len(cols) < ncols:
            picks = rng.sample(range(len(cols)), min(3, len(cols)))
            coeffs = [rng.choice((-2, -1, 1, 2)) for _ in picks]
            cols.append([sum(a * cols[j][i] for a, j in zip(coeffs, picks)) for i in range(nr)])
        shuffled = cols[:]
        rng.shuffle(shuffled)
        for cs in (cols, shuffled):
            mat = [list(row) for row in zip(*cs)]
            m = SparseMatrix(nr, len(cs), tuple(to_triples(mat)))
            rank = rank_fraction(mat)
            assert rank < len(cs)
            assert matrix_rank(m, RATIONALS) == rank == rank_bareiss_dense(mat)
            for p in (2, 3, 5):
                assert matrix_rank(m, FieldSpec(p)) == rank_mod_p_dense(mat, p)
    # entries beyond 64-bit intermediates stay exact
    big = [
        [[2**40]],
        [[2**40, -(2**40)], [-(2**40), 2**40]],
        [[2**70, 3], [2**40, 1]],
        [[2**70, 2**70 + 1, 0], [-(2**40), 5, 2**70], [2**70, 2**70 + 1, 0]],
    ]
    for mat in big:
        m = SparseMatrix(len(mat), len(mat[0]), tuple(to_triples(mat)))
        assert matrix_rank(m, RATIONALS) == rank_fraction(mat)
        for p in (2, 3, 5):
            assert matrix_rank(m, FieldSpec(p)) == rank_mod_p_dense(mat, p)


# ---------------------------------------------------------------------------
# the rank kernel
# ---------------------------------------------------------------------------


def test_backend_reported():
    assert BACKEND == "pure"
    assert _kernels.__all__ == ["rank_mod_p", "rank_int"]


# ---------------------------------------------------------------------------
# reduced Betti numbers
# ---------------------------------------------------------------------------


def test_betti_hollow_triangle():
    assert reduced_betti(HOLLOW_TRIANGLE, RATIONALS) == {-1: 0, 0: 0, 1: 1}


def test_betti_full_simplex():
    for field in (RATIONALS, GF2, GF5):
        assert not any(reduced_betti(simplex([0, 1, 2]), field).values())


def test_betti_empty_complex():
    c = SimplicialComplex.from_faces([])
    assert reduced_betti(c, RATIONALS) == {-1: 1}
    assert not is_k_acyclic(c, RATIONALS)


def test_betti_rp2_fixture(rp2):
    assert reduced_betti(rp2, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_betti(rp2, RATIONALS) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_betti(rp2, GF3) == {-1: 0, 0: 0, 1: 0, 2: 0}
    for char in (0, 2, 3, 5):
        field = FieldSpec(char)
        assert reduced_betti(rp2, field) == oracle_betti_snf(rp2, char)


def test_is_k_acyclic():
    coned = join(HOLLOW_TRIANGLE, simplex([9]))
    assert is_k_acyclic(coned, RATIONALS)
    assert not is_k_acyclic(HOLLOW_TRIANGLE, RATIONALS)


def test_cones_are_acyclic_random():
    rng = random.Random(303)
    for _ in range(25):
        c = random_complex(rng, 8)
        apex = max(c.vertices) + 1
        coned = join(c, simplex([apex]))
        for field in (RATIONALS, GF2):
            assert is_k_acyclic(coned, field)


def test_betti_matches_dense_oracle_random():
    rng = random.Random(404)
    for _ in range(60):
        c = random_complex(rng, 10)
        for char in (0, 2, 3):
            assert reduced_betti(c, FieldSpec(char)) == oracle_betti(c, char)


def test_euler_poincare_every_field():
    rng = random.Random(505)
    for _ in range(30):
        c = random_complex(rng, 9)
        chi = reduced_euler_characteristic(c)
        for field in (RATIONALS, GF2, GF3, GF5):
            bt = reduced_betti(c, field)
            assert sum((-1) ** i * v for i, v in bt.items()) == chi


def test_betti_pentagon_circle():
    dc5 = independence_complex(cycle_graph(5))
    assert reduced_betti(dc5, RATIONALS) == {-1: 0, 0: 0, 1: 1}


def test_rank_field_consistency_via_snf():
    rng = random.Random(606)
    for _ in range(40):
        c = random_complex(rng, 8)
        for i in range(0, c.dim + 1):
            m = boundary_matrix(c, i, RATIONALS)
            dense = m.to_dense()
            if not dense or not dense[0]:
                continue
            rank_q = matrix_rank(m, RATIONALS)
            divisors = [d for d in smith_diagonal(dense) if d]
            assert rank_q == len(divisors)
            for p in (2, 3, 5):
                rank_p = matrix_rank(m, FieldSpec(p))
                assert rank_p <= rank_q
                assert rank_p == sum(1 for d in divisors if d % p)


def test_betti_void_rejected():
    with pytest.raises(ValueError):
        reduced_betti(SimplicialComplex.void(), RATIONALS)
