import random
import re
import sys
from itertools import combinations

import pytest

from oracles import (
    SimplicialComplex,
    facet_masks,
    independence_complex,
    join,
    oracle_betti,
    oracle_betti_snf,
    oracle_boundaries,
    rank_bareiss_dense,
    rank_fraction,
    rank_mod_p_dense,
    read_facets,
    reduced_euler_characteristic,
    simplex,
    smith_diagonal,
)
from tfgor import (
    GF2,
    GF3,
    GF5,
    RATIONALS,
    FieldSpec,
    Graph,
    cycle_graph,
    reduced_betti,
    survey,
)
from tfgor import BACKEND, _kernels
from tfgor.cli import main
from tfgor.homology import _boundaries

HOLLOW_TRIANGLE = read_facets("0 1\n1 2\n0 2\n")


def random_complex(rng, max_vertices=12):
    nv = rng.randint(1, max_vertices)
    gens = [
        tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 5)))))
        for _ in range(rng.randint(1, 8))
    ]
    return SimplicialComplex.from_faces(gens)


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def to_columns(mat):
    """The columns of a dense matrix as fresh {row: value} dicts (the
    kernels mutate their input, so build them anew for each call)."""
    ncols = len(mat[0]) if mat else 0
    return [{r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(ncols)]


def betti(c, field):
    """reduced_betti of a complex, through its facet masks."""
    return reduced_betti(facet_masks(c), field)


def sparse(c, rng):
    """c with its labels spread out, up to about 10**18; the ranks of the
    labels, and so the homology, stay the same."""
    labels = sorted(rng.sample(range(10**18), len(c.vertices)))
    to = dict(zip(c.vertices, labels))
    return SimplicialComplex(
        map(to.get, c.vertices), (map(to.get, f) for f in c.facets), validate=False
    )


def chain(facets):
    """The maps of _boundaries bottom up: for each degree i in 0..dim, the
    row faces (size i), the column faces (size i+1) and the columns."""
    steps, rows = [], [0]
    for faces, columns in reversed(list(_boundaries(facets))):
        steps.append((rows, faces, columns))
        rows = faces
    return steps


def boundaries(c):
    """The dense degree-i boundary map of _boundaries for each i in
    0..dim, rows and columns permuted into the oracle's (size, lex) order
    of the faces."""
    oracle_by_size, _ = oracle_boundaries(c)
    bit = {x: 1 << i for i, x in enumerate(c.vertices)}
    at = [
        {sum(bit[x] for x in f): k for k, f in enumerate(oracle_by_size[size])}
        for size in range(c.dim + 2)
    ]
    mats = []
    for i, (rows, faces, columns) in enumerate(chain(facet_masks(c))):
        mat = [[0] * len(faces) for _ in rows]
        for f, col in zip(faces, columns):
            for r, v in col.items():
                mat[at[i][rows[r]]][at[i + 1][f]] = v
        mats.append(mat)
    return mats


def kernel_rank(mat, char):
    columns = to_columns(mat)
    if char == 0:
        return len(_kernels.rank_int(columns))
    return len(_kernels.rank_mod_p(columns, char))


def kernel(columns, char):
    """The pivot rows of fresh copies of these columns."""
    if char == 0:
        return _kernels.rank_int([dict(col) for col in columns])
    return _kernels.rank_mod_p([dict(col) for col in columns], char)


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
    # only the labels that .label gives: no sign, space, underscore,
    # leading zero or digit outside ASCII, and each names itself
    for label in ("f0", "f1", "f4", "f-3", "fx", "f 3", "f03", "f3 ", "f+3", "f\u0663", "f1_1", "f"):
        with pytest.raises(ValueError, match=f"unknown field label {re.escape(repr(label))}"):
            FieldSpec.from_label(label)
    for p in (2, 3, 5, 11, 101):
        assert FieldSpec.from_label(f"f{p}").label == f"f{p}"
    # a survey asked for GF(3) under three spellings used to report three columns
    with pytest.raises(ValueError, match="'f03'"):
        survey(["Dhc"], fields=("f3", "f03", "f 3"))


# ---------------------------------------------------------------------------
# boundary columns
# ---------------------------------------------------------------------------


def test_boundary_single_edge():
    # dropping the lower bit finds 0b10 first (row 0, sign +1), dropping
    # the higher finds 0b01 (row 1, sign -1); the vertices then map to ()
    assert list(_boundaries((0b11,))) == [
        ([0b11], [{0: 1, 1: -1}]),
        ([0b10, 0b01], [{0: 1}, {0: 1}]),
    ]
    # bits far apart: rows in the order found, signs alternate from the lowest bit
    top = 1 << 40 | 1 << 7 | 1
    faces, columns = next(_boundaries((top,)))
    assert (faces, columns) == ([top], [{0: 1, 1: -1, 2: 1}])
    faces, _ = list(_boundaries((top,)))[1]
    assert faces == [1 << 40 | 1 << 7, 1 << 40 | 1, 1 << 7 | 1]


def test_boundary_vertices_map_to_empty_face():
    assert list(_boundaries((1, 2, 4))) == [([1, 2, 4], [{0: 1}] * 3)]
    assert list(_boundaries((0,))) == []


def test_boundary_numbers_smaller_facets_last():
    # the vertex 0b100 is a facet: it is in no boundary, so it is
    # numbered after the faces the edge's column meets
    steps = list(_boundaries((0b011, 0b100)))
    assert steps == [([0b011], [{0: 1, 1: -1}]), ([0b010, 0b001, 0b100], [{0: 1}] * 3)]
    # the row order of a map is the column order of the next one down
    rng = random.Random(66)
    for _ in range(30):
        facets = facet_masks(random_complex(rng, 9))
        for (rows, _, _), (_, faces, _) in zip(chain(facets)[1:], chain(facets)):
            assert rows == faces


def test_boundary_composition_is_zero():
    rng = random.Random(77)
    for _ in range(30):
        c = random_complex(rng, 9)
        mats = boundaries(c)
        for a, b in zip(mats, mats[1:]):
            if not a or not b or not b[0]:
                continue
            for bi in range(len(a)):
                for bj in range(len(b[0])):
                    assert sum(a[bi][k] * b[k][bj] for k in range(len(b))) == 0


def test_boundary_matches_oracle_random():
    # every degree 0..dim, including the map of the vertices to (); each
    # degree meets the oracle's faces
    rng = random.Random(88)
    for _ in range(60):
        c = random_complex(rng, 9)
        oracle_by_size, oracle_mats = oracle_boundaries(c)
        assert boundaries(c) == oracle_mats
        facets = facet_masks(c)
        bit = {x: 1 << i for i, x in enumerate(c.vertices)}
        for i, (rows, faces, columns) in enumerate(chain(facets)):
            assert sorted(faces) == sorted(sum(bit[x] for x in f) for f in oracle_by_size[i + 1])


# ---------------------------------------------------------------------------
# the rank kernels
# ---------------------------------------------------------------------------


def test_rank_trivial():
    zero = [[0] * 4 for _ in range(3)]
    assert kernel_rank(zero, 0) == 0
    ident = [[int(r == c) for c in range(3)] for r in range(3)]
    assert kernel_rank(ident, 0) == 3
    assert kernel_rank(ident, 2) == 3


def test_rank_hollow_triangle_boundary():
    mats = boundaries(HOLLOW_TRIANGLE)
    assert kernel_rank(mats[1], 0) == 2


def test_rank_mod_p_drops_entries_divisible_by_p():
    m = [[2, 0], [0, 4]]
    assert kernel_rank(m, 0) == 2
    assert kernel_rank(m, 2) == 0
    assert kernel_rank(m, 3) == 2


def test_rank_matches_dense_oracles_random():
    rng = random.Random(101)
    for _ in range(120):
        nr, nc = rng.randint(0, 7), rng.randint(0, 7)
        mat = [
            [rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert kernel_rank(mat, 0) == rank_fraction(mat)
        assert kernel_rank(mat, 0) == rank_bareiss_dense(mat)
        for p in (2, 3, 5):
            assert kernel_rank(mat, p) == rank_mod_p_dense(mat, p)
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
            rank = rank_fraction(mat)
            assert rank < len(cs)
            assert kernel_rank(mat, 0) == rank == rank_bareiss_dense(mat)
            for p in (2, 3, 5):
                assert kernel_rank(mat, p) == rank_mod_p_dense(mat, p)
    # entries beyond 64-bit intermediates stay exact
    big = [
        [[2**40]],
        [[2**40, -(2**40)], [-(2**40), 2**40]],
        [[2**70, 3], [2**40, 1]],
        [[2**70, 2**70 + 1, 0], [-(2**40), 5, 2**70], [2**70, 2**70 + 1, 0]],
    ]
    for mat in big:
        assert kernel_rank(mat, 0) == rank_fraction(mat)
        for p in (2, 3, 5):
            assert kernel_rank(mat, p) == rank_mod_p_dense(mat, p)


def test_rank_mod_2_matches_dense_oracle_random():
    # 0/1 matrices up to 150 rows; empty matrices, zero columns and zero
    # rows included
    assert _kernels.rank_mod_p([], 2) == set()
    assert _kernels.rank_mod_p([{}, {}], 2) == set()
    assert _kernels.rank_mod_p([{100: 1}, {}, {100: 1, 0: 1}, {0: 1}], 2) == {100, 0}
    rng = random.Random(111)
    for _ in range(150):
        nr, nc = rng.choice((0, 1, 5, 40, 70, 150)), rng.randint(0, 12)
        density = rng.choice((0.0, 0.05, 0.3, 0.7))
        mat = [[int(rng.random() < density) for _ in range(nc)] for _ in range(nr)]
        for r in rng.sample(range(nr), nr // 4):
            mat[r] = [0] * nc
        # repeat some columns, and add the sums of others
        cols = [[row[c] for row in mat] for c in range(nc)]
        for _ in range(rng.randint(0, 4)):
            if cols:
                a, b = rng.choice(cols), rng.choice(cols)
                cols.insert(rng.randint(0, len(cols)), [x ^ y for x, y in zip(a, b)])
        mat = [list(row) for row in zip(*cols)] if cols and nr else [[] for _ in range(nr)]
        pivots = _kernels.rank_mod_p([{r: 1 for r, x in enumerate(col) if x} for col in cols], 2)
        assert len(pivots) == (rank_mod_p_dense(mat, 2) if cols and nr else 0)


def test_backend_reported():
    assert BACKEND == "pure"
    assert _kernels.__all__ == ["rank_mod_p", "rank_int"]


# ---------------------------------------------------------------------------
# reduced Betti numbers
# ---------------------------------------------------------------------------


def test_betti_hollow_triangle():
    assert betti(HOLLOW_TRIANGLE, RATIONALS) == {-1: 0, 0: 0, 1: 1}


def test_betti_full_simplex():
    for field in (RATIONALS, GF2, GF5):
        assert not any(betti(simplex([0, 1, 2]), field).values())


def test_betti_empty_complex():
    c = SimplicialComplex.from_faces([])
    assert facet_masks(c) == (0,)
    assert reduced_betti((0,), RATIONALS) == {-1: 1}
    assert any(betti(c, RATIONALS).values())


def test_betti_rp2_fixture(rp2):
    rng = random.Random(202)
    for c in (rp2, sparse(rp2, rng), sparse(rp2, rng)):
        assert betti(c, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert betti(c, RATIONALS) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert betti(c, GF3) == {-1: 0, 0: 0, 1: 0, 2: 0}
        for char in (0, 2, 3, 5):
            field = FieldSpec(char)
            assert betti(c, field) == oracle_betti_snf(rp2, char)


def test_is_k_acyclic():
    # k-acyclic: every reduced Betti number vanishes
    coned = join(HOLLOW_TRIANGLE, simplex([9]))
    assert not any(betti(coned, RATIONALS).values())
    assert any(betti(HOLLOW_TRIANGLE, RATIONALS).values())


def test_cones_are_acyclic_random():
    rng = random.Random(303)
    for _ in range(25):
        c = random_complex(rng, 8)
        apex = max(c.vertices) + 1
        coned = join(c, simplex([apex]))
        for field in (RATIONALS, GF2):
            assert not any(betti(coned, field).values())


def test_cones_enumerate_no_faces(monkeypatch, capsys):
    # a cone is acyclic, so reduced_betti answers it from the facets alone;
    # the 20-vertex edgeless graph has a 19-simplex of 2^20 faces as Ind(G)
    homology = sys.modules["tfgor.homology"]

    def no_faces(facets):
        raise AssertionError(f"enumerated the faces of {facets}")

    monkeypatch.setattr(homology, "_boundaries", no_faces)
    rng = random.Random(707)
    cones = [simplex([0]), simplex(range(5)), simplex(range(30))]
    for _ in range(25):
        c = random_complex(rng, 8)
        cones.append(join(c, simplex([max(c.vertices) + 1])))
    for c in cones:
        for field in (RATIONALS, GF2, GF3):
            assert betti(c, field) == dict.fromkeys(range(-1, c.dim + 1), 0)
    for field in ("q", "f2", "f3"):
        assert main(["homology", "--g6", "S" + "?" * 32, "--field", field]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"field: {field}" and out[-1] == "chi~ = 0"
        assert out[1:-1] == [f"H~_{i} = 0" for i in range(-1, 20)]


def test_betti_matches_dense_oracle_random():
    # each complex also with its labels spread out up to about 10**18
    rng = random.Random(404)
    for _ in range(60):
        c = random_complex(rng, 10)
        spread = sparse(c, rng)
        assert facet_masks(spread) == facet_masks(c)
        for char in (0, 2, 3):
            expected = oracle_betti(c, char)
            assert betti(c, FieldSpec(char)) == expected
            assert betti(spread, FieldSpec(char)) == expected


def test_euler_poincare_every_field():
    rng = random.Random(505)
    for _ in range(30):
        c = random_complex(rng, 9)
        chi = reduced_euler_characteristic(c)
        for field in (RATIONALS, GF2, GF3, GF5):
            bt = betti(c, field)
            assert sum((-1) ** i * v for i, v in bt.items()) == chi


def test_betti_pentagon_circle():
    dc5 = independence_complex(cycle_graph(5))
    assert betti(dc5, RATIONALS) == {-1: 0, 0: 0, 1: 1}


def test_rank_field_consistency_via_snf():
    rng = random.Random(606)
    for _ in range(40):
        c = random_complex(rng, 8)
        for dense in boundaries(c):
            if not dense or not dense[0]:
                continue
            rank_q = kernel_rank(dense, 0)
            divisors = [d for d in smith_diagonal(dense) if d]
            assert rank_q == len(divisors)
            for p in (2, 3, 5):
                rank_p = kernel_rank(dense, p)
                assert rank_p <= rank_q
                assert rank_p == sum(1 for d in divisors if d % p)


def test_betti_high_labels_not_pure_matches_oracles_random():
    # facet masks straight from labels above bit 40, facets of mixed sizes
    rng = random.Random(808)
    mixed = 0
    for _ in range(60):
        c = random_complex(rng, 10)
        bit = dict(zip(c.vertices, rng.sample(range(40, 130), len(c.vertices))))
        facets = tuple(sorted(sum(1 << bit[x] for x in f) for f in c.facets))
        mixed += len({len(f) for f in c.facets}) > 1
        for char in (0, 2, 3):
            expected = oracle_betti(c, char)
            assert reduced_betti(facets, FieldSpec(char)) == expected
            assert expected == oracle_betti_snf(c, char)
    assert mixed > 20
    assert reduced_betti((1 << 50,), GF2) == {-1: 0, 0: 0}
    assert reduced_betti((1 << 41, 1 << 90), RATIONALS) == {-1: 0, 0: 1}


def test_clearing_skips_only_columns_that_reduce_to_zero():
    # a degree-i column whose index is a pivot row of degree i+1 reduces
    # to zero: with or without the cleared columns each degree has the
    # same pivot rows, and the cleared columns alone add none
    rng = random.Random(909)
    complexes = [facet_masks(random_complex(rng, 10)) for _ in range(40)]
    complexes.append(facet_masks(independence_complex(cycle_graph(7))))
    checked = 0
    for facets in complexes:
        for char in (0, 2, 3):
            cleared = set()
            for faces, columns in _boundaries(facets):
                kept = [col for j, col in enumerate(columns) if j not in cleared]
                skipped = [col for j, col in enumerate(columns) if j in cleared]
                pivots = kernel(columns, char)
                assert kernel(kept, char) == pivots
                assert kernel(kept + skipped, char) == pivots
                checked += len(skipped)
                cleared = pivots
    assert checked > 100


def test_betti_void_rejected():
    assert facet_masks(SimplicialComplex.void()) == ()
    for field in (RATIONALS, GF2, GF3):
        with pytest.raises(ValueError, match="void"):
            reduced_betti((), field)
