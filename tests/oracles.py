"""Independent oracles for the test suite.

Nothing here shares code with the package internals: faces are
re-enumerated from facets by powerset, boundary matrices are dense lists
of lists, and ranks come from plain Gaussian elimination over Fraction,
from dense fraction-free elimination over the integers, or from an
integer Smith-style diagonalization.  A complex is a SimplicialComplex,
defined here: its facets as sorted label tuples on a ground set.  The
independence complex of a graph is built from the brute-force maximal
independent sets, and facet_masks turns a complex into the sorted facet
bitmasks the package takes.  The subcomplexes and subgraphs the lemma
tests state their facts about (links, deletions, joins, localizations)
are defined by set operations on labels, and come back as Graph and
SimplicialComplex values.  all_graphs lists every small graph up to
isomorphism by the corpus generator's canonical form.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

from tfgor import Graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from generate_corpora import canonical_chunks, chunks_to_graph  # noqa: E402


# ---------------------------------------------------------------------------
# brute-force independence combinatorics
# ---------------------------------------------------------------------------


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_independent_sets(n, edges):
    """Every independent set of the labeled graph, as sorted tuples, by
    size and then lexicographically.  Each set of size k + 1 is a set of
    size k with a larger vertex appended that has no edge to any member."""
    adj = _adjacency(n, edges)
    level = [()]
    out = []
    while level:
        out += level
        level = [
            sub + (v,)
            for sub in level
            for v in range(sub[-1] + 1 if sub else 0, n)
            if adj[v].isdisjoint(sub)
        ]
    return out


def brute_euler_characteristic(n, edges):
    """Reduced Euler characteristic of the independence complex: one
    (-1)^(|F| - 1) per independent set F, the empty set included."""
    return sum(1 if len(s) % 2 else -1 for s in brute_independent_sets(n, edges))


def brute_girth(n, edges):
    """Fewest vertices on a cycle, or math.inf for a forest.

    Leaves are peeled first, since no cycle passes through a vertex of
    degree below 2.  Then, for k = 3, 4, ..., every path of k distinct
    vertices that starts at its smallest vertex s is tried for an edge
    back to s.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    core = set(range(n))
    leaves = [v for v in core if len(adj[v]) < 2]
    while leaves:
        v = leaves.pop()
        if v not in core:
            continue
        core.discard(v)
        for u in adj[v] & core:
            if len(adj[u] & core) < 2:
                leaves.append(u)

    def closes(path, k):
        if len(path) == k:
            return path[0] in adj[path[-1]]
        return any(
            closes(path + [v], k)
            for v in adj[path[-1]] & core
            if v > path[0] and v not in path
        )

    for k in range(3, len(core) + 1):
        if any(closes([s], k) for s in core):
            return k
    return math.inf


def brute_maximal_independent_sets(n, edges):
    """The independent sets that no vertex extends, as sorted tuples in
    sorted order: every vertex outside one has an edge to a member."""
    adj = _adjacency(n, edges)
    out = []
    for s in brute_independent_sets(n, edges):
        members = set(s)
        if all(v in members or adj[v] & members for v in range(n)):
            out.append(s)
    return sorted(out)


def chain_independent_set_counts(n, cycle=False):
    """The independent sets of the path 0-1-...-(n-1), or of the cycle that
    also joins n-1 to 0, counted by size: entry k is the number of size k.
    A transfer along the vertices in order, from each choice for vertex 0,
    keeping apart the sets without and with the last vertex so far."""
    total = [0] * (n + 1)
    for first in (0, 1) if n else (0,):
        without, with_last = [0] * (n + 1), [0] * (n + 1)
        (with_last if first else without)[first] = 1
        for _ in range(1, n):
            without, with_last = [a + b for a, b in zip(without, with_last)], [0] + without[:-1]
        if cycle and first:  # vertex n-1 is a neighbor of vertex 0
            with_last = [0] * (n + 1)
        total = [t + a + b for t, a, b in zip(total, without, with_last)]
    return total


def brute_alpha(n, edges):
    return max(len(s) for s in brute_independent_sets(n, edges))


def brute_component_count(n, edges):
    """Connected components, merging the label sets that an edge joins."""
    parts = [{v} for v in range(n)]
    for u, v in edges:
        pu = next(p for p in parts if u in p)
        pv = next(p for p in parts if v in p)
        if pu is not pv:
            parts.remove(pv)
            pu |= pv
    return len(parts)


# ---------------------------------------------------------------------------
# simplicial complexes by their facets, as label tuples
# ---------------------------------------------------------------------------


def _as_face(f) -> tuple[int, ...]:
    t = tuple(sorted(f))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in face {t}")
    return t


def _maximal_only(cands) -> tuple[tuple[int, ...], ...]:
    # quadratic absorption, each set against every kept one: the reference
    # for the indexed absorption of homology.parse_facets
    sets = sorted({frozenset(c) for c in cands}, key=len, reverse=True)
    kept: list[frozenset] = []
    for s in sets:
        if not any(s <= k for k in kept):
            kept.append(s)
    return tuple(sorted(tuple(sorted(s)) for s in kept))


class SimplicialComplex:
    """Facet-based simplicial complex on a ground set of integer labels,
    which may strictly contain the union of the facets.  The complex {()}
    of the empty face alone is the default "empty" value; the void complex
    (no faces at all) exists as a flagged special case."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets, validate: bool = True):
        vs = tuple(sorted(set(vertices)))
        fs = tuple(sorted(_as_face(f) for f in facets))
        if validate:
            vset = set(vs)
            sets = [frozenset(f) for f in fs]
            for i, s in enumerate(sets):
                if not s <= vset:
                    raise ValueError(f"facet {fs[i]} not inside the ground set")
                for j, t in enumerate(sets):
                    if i != j and s <= t:
                        raise ValueError(f"facet {fs[i]} contained in {fs[j]}")
        self.vertices = vs
        self.facets = fs

    @classmethod
    def from_faces(cls, generators, vertices=()) -> "SimplicialComplex":
        """Build from generating faces; non-maximal generators are absorbed.

        With no generators the result is {()}, the complex of the empty
        face alone.
        """
        gens = [_as_face(f) for f in generators]
        ground = set(vertices)
        for f in gens:
            ground.update(f)
        facets = _maximal_only(gens) if gens else ((),)
        return cls(tuple(ground), facets, validate=False)

    @classmethod
    def void(cls, vertices=()) -> "SimplicialComplex":
        """The void complex: no faces at all, not even the empty one."""
        return cls(vertices, (), validate=False)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def __contains__(self, f) -> bool:
        try:
            t = _as_face(f)
        except ValueError:
            return False
        return any(set(t) <= set(fac) for fac in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.vertices, self.facets))

    def __repr__(self):
        if self.is_void:
            return f"SimplicialComplex.void({list(self.vertices)!r})"
        return (
            f"SimplicialComplex(vertices={list(self.vertices)!r}, "
            f"facets={[list(f) for f in self.facets]!r})"
        )


def independence_complex(g):
    """The complex of independent sets of g, on the ground set 0..n-1; its
    facets are the brute-force maximal independent sets."""
    return SimplicialComplex(
        range(g.n), brute_maximal_independent_sets(g.n, g.edges()), validate=False
    )


def read_facets(text):
    """The complex of a facet file: every line that is neither blank nor
    a '#' comment is a face of whitespace-separated labels."""
    return SimplicialComplex.from_faces(
        tuple(map(int, ln.split()))
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    )


def facet_masks(c):
    """The facets of c as sorted bitmasks, each label the bit of its rank:
    the form the package's homology and criteria take; () for the void
    complex."""
    bit = {x: 1 << i for i, x in enumerate(sorted({x for f in c.facets for x in f}))}
    return tuple(sorted(sum(bit[x] for x in f) for f in c.facets))


# ---------------------------------------------------------------------------
# subgraphs and localizations, relabeled 0..k-1 in increasing label order
# ---------------------------------------------------------------------------


def _graph_subset(g, s):
    kept = tuple(sorted(set(s)))
    for x in kept:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for n={g.n}")
    return kept


def induced_subgraph(g, s):
    """Induced subgraph on s; new vertex i is sorted(s)[i]."""
    index = {x: i for i, x in enumerate(_graph_subset(g, s))}
    return Graph(
        len(index),
        [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
    )


def delete_vertex(g, x):
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    return induced_subgraph(g, [v for v in range(g.n) if v != x])


def delete_edge(g, e):
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"{(u, v)} is not an edge")
    return Graph(g.n, [f for f in g.edges() if f not in ((u, v), (v, u))])


def localized_vertices(g, s):
    """Labels surviving the localization at the independent set s: every
    vertex outside s and its neighbors."""
    kept = _graph_subset(g, s)
    if any(g.has_edge(u, v) for u, v in combinations(kept, 2)):
        raise ValueError(f"{kept} is not an independent set")
    removed = set(kept).union(*(g.neighbors(x) for x in kept))
    return tuple(v for v in range(g.n) if v not in removed)


def localize(g, s):
    """Delete the independent set s together with all its neighbors."""
    return induced_subgraph(g, localized_vertices(g, s))


def edge_localize(g, a, b):
    """Induced subgraph on V minus N(a) and N(b); a and b go too."""
    if not g.has_edge(a, b):
        raise ValueError(f"{(a, b)} is not an edge")
    removed = set(g.neighbors(a)) | set(g.neighbors(b))
    return induced_subgraph(g, [v for v in range(g.n) if v not in removed])


def oracle_well_covered(g):
    """Every maximal independent set has the same size."""
    return len({len(s) for s in brute_maximal_independent_sets(g.n, g.edges())}) <= 1


def oracle_w2(g):
    """g is well-covered, and so is every g - x, with the same independence
    number.  Deleting an isolated vertex lowers it, so no graph with one
    is in W2; the empty graph is, vacuously."""
    def sizes(h):
        return {len(t) for t in brute_maximal_independent_sets(h.n, h.edges())}

    alpha = sizes(g)
    return len(alpha) == 1 and all(sizes(delete_vertex(g, x)) == alpha for x in range(g.n))


def oracle_w2_private_neighbors(g):
    """W2 by private neighbors: g is well-covered, and for every maximal
    independent set T and every x in T some vertex y has N(y) & T = {x}.

    For g well-covered and a maximal set T through x, T - x is maximal in
    g - x iff no such y exists, and then g - x has a maximal set of size
    alpha - 1; every other maximal set of g - x is one of g.  An isolated
    x has no such y, and the empty graph's one maximal set is empty."""
    maximal = brute_maximal_independent_sets(g.n, g.edges())
    nbrs = [set(g.neighbors(y)) for y in range(g.n)]
    return len({len(t) for t in maximal}) == 1 and all(
        any(nb & set(t) == {x} for nb in nbrs) for t in maximal for x in t
    )


def oracle_alpha_critical(g):
    """Deleting any edge raises the independence number."""
    edges = g.edges()
    alpha = brute_alpha(g.n, edges)
    return all(brute_alpha(g.n, [f for f in edges if f != e]) > alpha for e in edges)


def all_graphs(max_n):
    """Every graph on 0..max_n vertices up to isomorphism, by the corpus
    generator's canonical form, each built fresh on every call, so that
    no two callers share a graph's memo (see _all_edge_lists)."""
    return [Graph(n, edges) for n, edges in _all_edge_lists(max_n)]


@functools.lru_cache(maxsize=None)
def _all_edge_lists(max_n):
    # (n, edges) for each graph of all_graphs, generated once per process:
    # each graph on n vertices is one on n - 1 with a vertex attached to
    # some subset
    level = {(): Graph(0)}
    out = [Graph(0)]
    for n in range(1, max_n + 1):
        nxt = {}
        for g in level.values():
            for s in range(1 << (n - 1)):
                bits = [b | (s >> v & 1) << (n - 1) for v, b in enumerate(g._nbr_bits)]
                key = canonical_chunks(n, bits + [s])
                if key not in nxt:
                    nxt[key] = chunks_to_graph(n, key)
        level = nxt
        out += level.values()
    return tuple((g.n, tuple(g.edges())) for g in out)


# ---------------------------------------------------------------------------
# reference graph6 encoder (n <= 258047), straight from the format description
# ---------------------------------------------------------------------------


def reference_graph6(n, edges):
    assert 0 <= n <= 258047
    adj = {frozenset(e) for e in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if frozenset((i, j)) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        out = [chr(63 + n)]
    else:  # '~' and then n in 18 bits, big-endian, six to a byte
        out = ["~"] + [chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value * 2 + b
        out.append(chr(63 + value))
    return "".join(out)


# ---------------------------------------------------------------------------
# dense exact linear algebra
# ---------------------------------------------------------------------------


def rank_fraction(mat) -> int:
    """Gaussian elimination over Fraction with first-nonzero pivoting."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for r in range(nrows):
            if r != rank and m[r][c]:
                f = m[r][c] / pv
                for cc in range(c, ncols):
                    m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_bareiss_dense(mat) -> int:
    """Dense fraction-free elimination with exact Python integers."""
    a = [[int(x) for x in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    prev = 1
    rank = 0
    for step in range(min(nrows, ncols)):
        pos = next(
            ((i, j) for i in range(step, nrows) for j in range(step, ncols)
             if a[i][j]),
            None,
        )
        if pos is None:
            break
        i0, j0 = pos
        a[step], a[i0] = a[i0], a[step]
        if j0 != step:
            for row in a:
                row[step], row[j0] = row[j0], row[step]
        piv = a[step][step]
        rank += 1
        for i in range(step + 1, nrows):
            for j in range(step + 1, ncols):
                num = piv * a[i][j] - a[i][step] * a[step][j]
                assert num % prev == 0
                a[i][j] = num // prev
            a[i][step] = 0
        prev = piv
    return rank


def rank_mod_p_dense(mat, p) -> int:
    m = [[int(x) % p for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for r in range(nrows):
            if r != rank and m[r][c]:
                f = (m[r][c] * inv) % p
                for cc in range(c, ncols):
                    m[r][cc] = (m[r][cc] - f * m[rank][cc]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def smith_diagonal(mat) -> list[int]:
    """Diagonal of an integer diagonalization of mat (unimodular row and
    column operations only); entries are not divisibility-sorted."""
    a = [[int(x) for x in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(nrows, ncols):
        pos, best = None, None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            moved = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if not moved:
                break
        diag.append(abs(a[t][t]))
        t += 1
    return diag


# ---------------------------------------------------------------------------
# dense homology oracle
# ---------------------------------------------------------------------------


def oracle_faces(complex_):
    """Faces re-enumerated from the facets by powerset, sorted (size, lex)."""
    seen = set()
    for fac in complex_.facets:
        for k in range(len(fac) + 1):
            seen.update(combinations(fac, k))
    return sorted(seen, key=lambda f: (len(f), f))


def face_poset_complement(complex_):
    """The graph on the nonempty faces of complex_, in oracle_faces order,
    with two faces adjacent when neither contains the other: the
    complement of the face poset's comparability graph.  Its independent
    sets are the chains of faces, so its independence complex is the
    barycentric subdivision of complex_."""
    faces = oracle_faces(complex_)[1:]
    edges = [
        (i, j)
        for (i, f), (j, h) in combinations(enumerate(faces), 2)
        if not set(f) <= set(h)  # size order: h never lies inside f
    ]
    return Graph(len(faces), edges)


def oracle_boundaries(complex_):
    """Dense integer boundary matrices, one per degree 0..dim."""
    fs = oracle_faces(complex_)
    by_size = {}
    for f in fs:
        by_size.setdefault(len(f), []).append(f)
    d = max(by_size) - 1
    mats = []
    for i in range(0, d + 1):
        rows = by_size.get(i, [])
        cols = by_size.get(i + 1, [])
        idx = {f: k for k, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for c, f in enumerate(cols):
            for s in range(len(f)):
                mat[idx[f[:s] + f[s + 1:]]][c] = 1 if s % 2 == 0 else -1
        mats.append(mat)
    return by_size, mats


def oracle_betti(complex_, char: int) -> dict[int, int]:
    """Reduced Betti numbers from dense elimination; char 0 or a prime."""
    by_size, mats = oracle_boundaries(complex_)
    d = max(by_size) - 1
    ranks = [0] * (d + 3)  # ranks[i+1] = rank of the degree-i map
    for i, mat in enumerate(mats):
        if not mat or not mat[0]:
            r = 0
        elif char == 0:
            r = rank_fraction(mat)
        else:
            r = rank_mod_p_dense(mat, char)
        ranks[i + 1] = r
    return {
        i: len(by_size.get(i + 1, ())) - ranks[i + 1] - ranks[i + 2]
        for i in range(-1, d + 1)
    }


def oracle_betti_snf(complex_, char: int) -> dict[int, int]:
    """Reduced Betti numbers from integer Smith-style diagonalization."""
    by_size, mats = oracle_boundaries(complex_)
    d = max(by_size) - 1
    ranks = [0] * (d + 3)
    for i, mat in enumerate(mats):
        if not mat or not mat[0]:
            ranks[i + 1] = 0
            continue
        diag = smith_diagonal(mat)
        if char == 0:
            ranks[i + 1] = sum(1 for v in diag if v)
        else:
            ranks[i + 1] = sum(1 for v in diag if v % char)
    return {
        i: len(by_size.get(i + 1, ())) - ranks[i + 1] - ranks[i + 2]
        for i in range(-1, d + 1)
    }


# ---------------------------------------------------------------------------
# subcomplexes, on ground sets that keep their original labels
# ---------------------------------------------------------------------------


def simplex(labels):
    """The full simplex on the given labels ({()} when labels is empty)."""
    face = tuple(sorted(labels))
    return SimplicialComplex(face, (face,), validate=False)


def link(c, f):
    """Faces H disjoint from f with H union f in c, on the ground V minus f."""
    fs = set(f)
    sub = [fac for fac in c.facets if fs <= set(fac)]
    if not sub:
        raise ValueError(f"{tuple(sorted(fs))} is not a face")
    return SimplicialComplex(
        (x for x in c.vertices if x not in fs),
        (tuple(x for x in fac if x not in fs) for fac in sub),
        validate=False,
    )


def _ground_subset(c, s):
    missing = sorted(set(s) - set(c.vertices))
    if missing:
        raise ValueError(f"vertex {missing[0]} not in the ground set")
    return set(s)


def delete_set(c, s):
    """Faces avoiding s, on the ground set V minus s."""
    drop = _ground_subset(c, s)
    rest = [x for x in c.vertices if x not in drop]
    if c.is_void:
        return SimplicialComplex.void(rest)
    return SimplicialComplex.from_faces(
        (tuple(x for x in fac if x not in drop) for fac in c.facets), vertices=rest
    )


def restrict(c, s):
    """Faces contained in s, on the ground set s."""
    keep = _ground_subset(c, s)
    if c.is_void:
        return SimplicialComplex.void(keep)
    return SimplicialComplex.from_faces(
        (tuple(x for x in fac if x in keep) for fac in c.facets), vertices=keep
    )


def is_cone(c):
    """Some ground vertex lies in every facet."""
    return any(all(x in fac for fac in c.facets) for x in c.vertices)


def core_of(c):
    """Restriction of c to the vertices whose star is proper: those that
    miss some facet."""
    if c.is_void:
        return c
    return restrict(c, [x for x in c.vertices if not all(x in fac for fac in c.facets)])


def join(c, d):
    """Join of two complexes, faces F union H.

    Overlapping ground sets are resolved by shifting every label of d up
    by max(V(c)) + 1, mirroring the disjoint union of graphs; already
    disjoint ground sets keep their labels.
    """
    if set(c.vertices) & set(d.vertices):
        shift = max(c.vertices) + 1
        d = SimplicialComplex(
            (x + shift for x in d.vertices),
            (tuple(x + shift for x in f) for f in d.facets),
            validate=False,
        )
    vertices = c.vertices + d.vertices
    if c.is_void or d.is_void:
        return SimplicialComplex.void(vertices)
    return SimplicialComplex(
        vertices, (fc + fd for fc in c.facets for fd in d.facets), validate=False
    )


def reduced_euler_characteristic(c):
    """Alternating face-count sum over all faces: sum of (-1)^(|F|-1)."""
    if c.is_void:
        raise ValueError("the void complex has no Euler characteristic")
    return sum(1 if len(f) % 2 else -1 for f in oracle_faces(c))


def is_pure(c):
    """True iff all facets share one dimension (vacuously true when void)."""
    return len({len(f) for f in c.facets}) <= 1


# ---------------------------------------------------------------------------
# Reisner's criterion, face by face, on the dense homology oracle
# ---------------------------------------------------------------------------


def oracle_cohen_macaulay(complex_, char: int) -> bool:
    """Every face's link has reduced homology only in its top degree.
    Only complex_.facets is read; it may list faces that are not maximal."""
    for f in oracle_faces(complex_):
        lk = SimpleNamespace(facets=tuple(
            tuple(x for x in h if x not in f)
            for h in complex_.facets
            if set(f) <= set(h)
        ))
        top = max(len(h) for h in lk.facets) - 1
        betti = oracle_betti(lk, char)
        if any(betti[i] for i in range(-1, top)):
            return False
    return True


def oracle_eulerian(complex_) -> bool:
    """Pure, and every face's link has reduced Euler characteristic
    (-1)^(dim of the link).  Only complex_.facets is read.

    The faces of lk F are the H - F for the faces H containing F, so
    chi~(lk F) is the sum of (-1)^(|H| - |F| - 1) over those H."""
    sizes = {len(h) for h in complex_.facets}
    if len(sizes) != 1:
        return False
    (size,) = sizes
    faces = oracle_faces(complex_)
    for f in faces:
        chi = sum(
            1 if (len(h) - len(f)) % 2 else -1 for h in faces if set(f) <= set(h)
        )
        if chi != (1 if (size - len(f) - 1) % 2 == 0 else -1):
            return False
    return True


def oracle_doubly_cm(complex_, char: int) -> bool:
    """Cohen-Macaulay, and still Cohen-Macaulay of the same dimension after
    deleting any single vertex."""
    if not oracle_cohen_macaulay(complex_, char):
        return False
    dim = max(len(h) for h in complex_.facets) - 1
    for x in sorted({v for h in complex_.facets for v in h}):
        rest = SimpleNamespace(facets=tuple(tuple(v for v in h if v != x) for h in complex_.facets))
        if max(len(h) for h in rest.facets) - 1 != dim:
            return False
        if not oracle_cohen_macaulay(rest, char):
            return False
    return True


def oracle_vertex_decomposable(complex_) -> bool:
    """Vertex decomposability by its definition on complexes (Provan and
    Billera 1980; Bjorner and Wachs 1997 when not pure): a simplex,
    {()} included, is vertex decomposable, and so is a complex with a
    vertex x whose deletion and link are, and that sheds: no face of the
    link is a facet of the deletion.  Only complex_.facets is read."""
    seen = {}

    def vd(facets):
        # facets: sorted, inclusion-maximal label tuples
        got = seen.get(facets)
        if got is None:
            got = seen[facets] = len(facets) == 1 or any(
                sheds(facets, x) for x in sorted({x for f in facets for x in f})
            )
        return got

    def sheds(facets, x):
        deletion = _maximal_only(tuple(y for y in f if y != x) for f in facets)
        lk = _maximal_only(tuple(y for y in f if y != x) for f in facets if x in f)
        return (
            not any(any(set(h) <= set(f) for f in lk) for h in deletion)
            and vd(deletion)
            and vd(lk)
        )

    return vd(_maximal_only(complex_.facets))
