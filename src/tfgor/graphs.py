"""Finite simple graphs and their independence combinatorics.

Vertices are the integer labels 0..n-1.  Graph values are immutable once
built, so they can be shared freely across worker processes.  An induced
subgraph, such as the localization at an edge, is a vertex bitmask of the
graph it lives in, never a new graph, so it shares that graph's memo.
The field-free walks on such masks live here: the vertex-decomposition
certificate (_vertex_decomposable), which commits to one shedding vertex
per mask and so proves but never refutes, and the Eulerian walk
(_eulerian), each decided one component at a time (_joined).  The
certificate and W2 share one test of a shedding vertex (_sheds), and
well-coveredness is a walk over the same masks (_pure), which like the
alpha and I(-1) recursions splits a large mask into components where it
branches (_SPLIT_ABOVE).  Where the certificate proves nothing, the
criteria hand a mask to _ind_facets, the one enumeration of maximal
independent sets, which gives the facets of its independence complex as
sorted bitmasks.
Neighbor tuples and edge lists come back sorted, to keep reports
reproducible.
"""

from __future__ import annotations

import math
import re
from itertools import chain, combinations

__all__ = [
    "Graph",
    "from_edge_list",
    "parse_graph6",
    "write_graph6",
    "parse_edge_list",
    "write_edge_list",
    "generate",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "girth4_planar",
    "disjoint_union",
    "girth",
    "is_triangle_free",
    "has_isolated_vertices",
    "is_connected",
    "independence_number",
    "independence_euler_characteristic",
    "is_well_covered",
    "is_in_w2",
    "is_alpha_critical",
]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is one bitmask per vertex, and neighbor tuples, degrees and
    edge lists are read off those masks.  The graph also holds one memo of
    what its adjacency decides, so classifying a graph over several fields
    does the field-free work once.  Its keys differ by shape or tag:

    - an int vertex mask S >= 0: alpha(g[S]), and its complement ~S < 0:
      I(g[S]; -1), the two independence recursions (see _alpha_of and
      _poly_of), each seeded with the empty mask;
    - "pure": the set of the vertex masks S found to have Ind(g[S]) pure
      (see _pure);
    - "vd" and "eulerian": one table each, made on first use, from a
      vertex mask S to the vertex-decomposition certificate or the
      Eulerian verdict on Ind(g[S]), over the components of S (see
      _joined);
    - "short_cycle" (see _short_cycle), "connected", "well_covered",
      "w2" and "alpha_critical": the whole graph's verdicts;
    - ("facets", S): the maximal independent sets of S (see _ind_facets);
    - (facets, field): the criteria's link walk on a tuple of facet
      masks, the one entry that depends on a field.

    Nothing in the memo, and no function that fills it, refers back to
    the graph, so a graph and its memo make no reference cycle and are
    freed by refcount as soon as the last reference to the graph goes.
    """

    __slots__ = ("n", "_nbr_bits", "_memo")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        bits = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {tuple(e)!r} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self._set_adjacency(bits)

    @classmethod
    def _from_bits(cls, bits) -> Graph:
        """A graph from symmetric, loop-free neighbor masks, unchecked."""
        g = cls.__new__(cls)
        g._set_adjacency(bits)
        return g

    def _set_adjacency(self, bits) -> None:
        self.n = len(bits)
        self._nbr_bits = tuple(bits)
        self._memo = {0: 0, ~0: 1, "pure": set()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        b = self._nbr_bits[v]
        return tuple(u for u in range(b.bit_length()) if b >> u & 1)

    def degree(self, v: int) -> int:
        return self._nbr_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (
            0 <= u < self.n
            and 0 <= v < self.n
            and bool(self._nbr_bits[u] >> v & 1)
        )

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, b in enumerate(self._nbr_bits):
            b >>= u + 1  # the neighbors above u; bit i is vertex u + 1 + i
            while b:
                low = b & -b
                out.append((u, u + low.bit_length()))
                b ^= low
        return out

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._nbr_bits)) // 2

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._nbr_bits == other._nbr_bits
        )

    def __hash__(self):
        return hash((self.n, self._nbr_bits))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from a vertex count and an iterable of edge pairs."""
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# graph6 encoding
#
# Standard packing: the vertex count as one byte N+63 for n <= 62 (or the
# '~'-prefixed 18/36-bit forms), then the upper-triangle adjacency bits in
# column-major order -- pairs (0,1),(0,2),(1,2),(0,3),... -- six bits per
# byte, each byte offset by 63, final byte zero-padded.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# each graph6 character to its six bits, highest first, as a str.translate
# table: a character outside it stays one character, so the translation of a
# legal string is exactly six times as long
_G6_BITS = {63 + x: format(x, "06b") for x in range(64)}
_G6_CHUNK = 4096


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6-encoded graph (optional '>>graph6<<' header)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    bits = s.translate(_G6_BITS)
    if len(bits) != 6 * len(s):
        raise ValueError("illegal character in graph6 string")
    if s[0] != "~":
        n, idx = ord(s[0]) - 63, 1
    elif len(s) >= 4 and s[1] != "~":
        n, idx = int(bits[6:24], 2), 4
    elif len(s) >= 8 and s[1] == "~":
        n, idx = int(bits[12:48], 2), 8
    else:
        raise ValueError("malformed graph6 length prefix")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(s) - idx != nbytes:
        raise ValueError(
            f"graph6 body has {len(s) - idx} bytes, expected {nbytes} for n={n}"
        )
    bits = bits[6 * idx:]
    if "1" in bits[npairs:]:
        raise ValueError("nonzero padding bits in graph6 string")
    # column j holds the pairs (0,j)..(j-1,j) from string position k on.
    # The columns are read from integers of about _G6_CHUNK bits, each a
    # slice of the string reversed, so that position k is bit k - start:
    # one conversion for a body of up to 91 vertices, and no column read
    # by shifting an integer much longer than itself
    nbr = [0] * n
    k = start = end = 0
    for j in range(1, n):
        if k + j > end:
            start, end = k, k + max(j, _G6_CHUNK)
            chunk = int(bits[start:end][::-1], 2)
        col = chunk >> k - start & ~(-1 << j)
        k += j
        nbr[j] = col
        while col:
            low = col & -col
            nbr[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph._from_bits(nbr)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 string (no header)."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    elif n <= 68719476735:
        head = [63, 63] + [(n >> 6 * (5 - i)) & 63 for i in range(6)]
    else:
        raise ValueError("graph too large for graph6")
    # column j is bits 0..j-1 of vertex j's mask, lowest first
    bits = "".join(
        [format(g._nbr_bits[j] & ~(-1 << j), f"0{j}b")[::-1] for j in range(1, n)]
    )
    bits += "0" * (-len(bits) % 6)
    body = [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join([chr(x + 63) for x in head + body])


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based).
# ---------------------------------------------------------------------------


_INT = re.compile(r"-?[0-9]+")
# the most vertices an edge list may declare.  A graph holds one n-bit row
# per vertex, up to n^2/8 bytes whatever the edge count, 12.5 MB here; the
# exact recursions give out far below it (a path of 2,400 vertices already
# exceeds Python's recursion limit).
_EDGE_LIST_MAX_N = 10_000


def _int_pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    toks = line.split()
    try:
        if len(toks) != 2 or not all(map(_INT.fullmatch, toks)):
            raise ValueError
        return int(toks[0]), int(toks[1])
    except ValueError:  # not two ASCII integers, or one past int's digit limit
        raise ValueError(f"line {lineno}: expected {what}, got {line!r}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse a header line 'n m' and then m lines 'u v', no edge twice.
    Blank lines are skipped but counted, so every error starts 'line N:'.
    A header of more than _EDGE_LIST_MAX_N vertices is an error, raised
    before any row is allocated."""
    raw = text.splitlines()
    lines = [(k, ln) for k, r in enumerate(raw, start=1) if (ln := r.strip())]
    if not lines:
        raise ValueError(f"line {len(raw) + 1}: expected header 'n m', got end of text")
    (head_no, head), body = lines[0], lines[1:]
    n, m = _int_pair(head_no, head, "header 'n m'")
    if n < 0 or m < 0:
        raise ValueError(f"line {head_no}: negative count in header {head!r}")
    if n > _EDGE_LIST_MAX_N:
        raise ValueError(
            f"line {head_no}: {n} vertices exceed the limit of {_EDGE_LIST_MAX_N} for an edge list"
        )
    if len(body) != m:
        raise ValueError(f"line {head_no}: expected {m} edge lines, got {len(body)}")
    edges = set()
    for k, ln in body:
        u, v = _int_pair(k, ln, "edge line 'u v'")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {k}: edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"line {k}: loop edge at vertex {u}")
        if (e := (min(u, v), max(u, v))) in edges:
            raise ValueError(f"line {k}: duplicate edge ({u}, {v})")
        edges.add(e)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def girth4_planar(n: int) -> Graph:
    """Connected planar girth-4 graph on 3n-1 vertices (n >= 3).

    A strip of quadrilaterals: with 1-based labels x1..x(3n-1) the edges are
    x1x2, then for k = 1..n-1 the block x(3k-1)x(3k), x(3k)x(3k+1),
    x(3k+1)x(3k+2), x(3k+2)x(3k-2), and the chords x(3l-3)x(3l) for
    l = 2..n-1.  Vertex i here is x(i+1).  Members are well-covered with
    independence number n and Gorenstein independence complex.
    """
    if n < 3:
        raise ValueError("girth4-planar family needs n >= 3")
    edges = [(0, 1)]
    for k in range(1, n):
        edges += [
            (3 * k - 2, 3 * k - 1),
            (3 * k - 1, 3 * k),
            (3 * k, 3 * k + 1),
            (3 * k + 1, 3 * k - 3),
        ]
    for l in range(2, n):
        edges.append((3 * l - 4, 3 * l - 1))
    return Graph(3 * n - 1, edges)


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "girth4-planar": girth4_planar,
}


def generate(family: str, n: int) -> Graph:
    """Generate a named family member: path, cycle, complete, girth4-planar.
    A builder raises ValueError for n below its family's minimum."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return builder(n)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; the vertices of h are shifted up by g.n."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


# ---------------------------------------------------------------------------
# Elementary invariants
# ---------------------------------------------------------------------------


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or math.inf when g is a forest.

    A triangle or a 4-cycle is found by the one neighbor pass of
    _short_cycle.  Otherwise a forest (n minus its number of components
    edges) needs no search, and the rest are searched breadth first from
    each root r, layer by layer on bitmasks: an edge inside layer k closes
    a walk of length 2k+1 through r, and a vertex with two parents in
    layer k closes one of length 2k+2.  Either walk contains a cycle no
    longer than itself, and from a root on a shortest cycle the search
    finds that cycle's length exactly, so the minimum over roots is the
    girth.  The search ends early once it finds a 5-cycle, the shortest
    the pass leaves possible.
    """
    short = _short_cycle(g)
    if short:
        return short
    m = g.edge_count()
    if m < g.n and m == g.n - len(_components(g, (1 << g.n) - 1)):  # m >= n makes a cycle
        return math.inf
    nbr = g._nbr_bits
    best = math.inf
    for r in range(g.n):
        if best == 5:
            break
        seen = frontier = 1 << r
        k = 0
        while frontier and 2 * k + 1 < best:
            nxt = twice = 0
            m = frontier
            while m:
                nb = nbr[(m & -m).bit_length() - 1]
                m &= m - 1
                if nb & frontier:  # an edge inside layer k
                    best = 2 * k + 1
                new = nb & ~seen
                twice |= new & nxt  # reached from a second parent
                nxt |= new
            if twice and 2 * k + 2 < best:
                best = 2 * k + 2
            seen |= nxt
            frontier = nxt
            k += 1
    return best


def _short_cycle(g: Graph) -> int:
    """3 when g has a triangle, else 4 when it has a 4-cycle, else 0, from
    one pass over the neighbors of each vertex u, memoized in g.

    With R the union of N(w) over the neighbors w of u, two adjacent
    vertices u and x with a common neighbor close a triangle, and those x
    are R & N(u).  In a triangle-free graph, two vertices u != x with two
    common neighbors w and w' close the 4-cycle u w x w', and those x are
    the vertices other than u that N(w) reaches for two w.
    """
    got = g._memo.get("short_cycle")
    if got is None:
        nbr = g._nbr_bits
        got = 0
        for u, b in enumerate(nbr):
            reach = twice = 0
            while b:
                low = b & -b
                b ^= low
                nb = nbr[low.bit_length() - 1]
                twice |= reach & nb
                reach |= nb
            if reach & nbr[u]:
                got = 3
                break
            if twice & ~(1 << u):
                got = 4
        g._memo["short_cycle"] = got
    return got


def is_triangle_free(g: Graph) -> bool:
    """True iff the girth is at least 4 (forests count).  Memoized in g."""
    return _short_cycle(g) != 3


def _flood(nbr, seen: int, within: int = -1) -> int:
    # the vertex mask of everything connected to the vertices in seen
    # inside the vertex mask within (default all)
    frontier = seen
    while frontier:
        reach = 0
        while frontier:
            reach |= nbr[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def _vertices_of(s: int):
    # the vertices of a mask, lowest first
    while s:
        b = s & -s
        s ^= b
        yield b.bit_length() - 1


def _components(g: Graph, s: int) -> list[int]:
    # the vertex masks of the connected components of g[s], by least vertex
    out = []
    while s:
        c = _flood(g._nbr_bits, s & -s, s)
        out.append(c)
        s &= ~c
    return out


def has_isolated_vertices(g: Graph) -> bool:
    return 0 in g._nbr_bits


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component.  Memoized in g."""
    got = g._memo.get("connected")
    if got is None:
        got = g._memo["connected"] = g.n == 0 or _flood(g._nbr_bits, 1) == (1 << g.n) - 1
    return got


# ---------------------------------------------------------------------------
# Independence combinatorics
#
# Maximal independent sets of g are the maximal cliques of the complement,
# enumerated by Bron-Kerbosch with pivoting on bitmasks, but only for the
# facets the criteria rank (see _ind_facets).  Well-coveredness walks the
# vertex masks S - N[u] instead, one component at a time, reading alpha at
# each (see _pure), and W2 asks in addition that every vertex shed (see
# is_in_w2).  alpha and the independence polynomial at -1 come from two
# recursions over vertex masks, each memoized per graph (see _alpha_of and
# _poly_of): branching on a vertex v, alpha(S) = max(alpha(S-v),
# 1 + alpha(S-N[v])) and I(S) = I(S-v) - I(S-N[v]).  A leaf u of g[S], with
# one neighbor w, needs no branch: alpha(S) = 1 + alpha(S-N[u]), since a
# maximum independent set through w stays one with u in place of w; and
# I(S) = -I(S-N[w]), since u is isolated in S-w, so I(S-w) has the factor
# 1 + x and vanishes at -1 (Engstrom's fold lemma, Europ. J. Combin. 29,
# 2008, gives the same).  Where they would branch, the recursions and the
# walk split a mask of more than _SPLIT_ABOVE vertices into components:
# alpha adds over them, I(-1) multiplies and purity holds iff it holds on
# each.  Exhaustive enumeration is fine at the target scale (n up to ~20).
#
# The recursions, the walk and the enumeration's _extend are module-level
# functions that take the neighbor masks (and the memo) as arguments.  A
# nested function that calls itself holds itself in its own closure cell, a
# reference cycle that would keep the graph's adjacency and memo alive until
# the cyclic collector ran; these hold no cycle, so a graph and its memo are
# freed by refcount once its record is built.  A caller that wants a
# function of the mask alone binds one with functools.partial.
# ---------------------------------------------------------------------------


def _extend(nonadj, chosen: int, cand: int, excl: int):
    # Bron-Kerbosch on the complement: the maximal independent sets through
    # chosen, drawn from cand, avoiding excl, pivoting on the vertex of
    # cand | excl with the most non-neighbors in cand
    if cand == 0 and excl == 0:
        yield chosen
        return
    pool = cand | excl
    best_u, best = -1, -1
    m = pool
    while m:
        u = (m & -m).bit_length() - 1
        score = (cand & nonadj[u]).bit_count()
        if score > best:
            best, best_u = score, u
        m &= m - 1
    todo = cand & ~nonadj[best_u]
    while todo:
        bit = todo & -todo
        v = bit.bit_length() - 1
        yield from _extend(nonadj, chosen | bit, cand & nonadj[v], excl & nonadj[v])
        cand &= ~bit
        excl |= bit
        todo ^= bit


def _ind_facets(g: Graph, s: int | None = None) -> tuple[int, ...]:
    """The sorted facet masks of Ind(g[s]), the maximal independent sets
    of the vertex mask s (default all), by Bron-Kerbosch (_extend).  They
    need no field and are memoized in g, the whole graph under its full
    mask, so that it and a core equal to V share one entry."""
    if s is None:
        s = (1 << g.n) - 1
    key = ("facets", s)
    facets = g._memo.get(key)
    if facets is None:
        # the non-neighbors in s of each vertex of s, read at those vertices alone
        nbr, nonadj = g._nbr_bits, [0] * g.n
        for v in _vertices_of(s):
            nonadj[v] = s & ~nbr[v] & ~(1 << v)
        facets = g._memo[key] = tuple(sorted(_extend(nonadj, 0, s, 0)))
    return facets


def _joined(g: Graph, table: dict, s: int, connected) -> bool:
    """Whether connected(g, c) holds on every component c of g[s], for a
    verdict that a join of complexes has iff each factor has it: Ind of a
    disjoint union is the join of the parts' complexes, and the empty
    mask gives True.  table is the walk's table in g's memo, keyed by
    vertex mask.  Each component is flooded once and looked up before
    connected decides it, so a walk decides each connected mask once; s
    is memoized beside its components."""
    got = table.get(s)
    if got is None:
        nbr, rest, got = g._nbr_bits, s, True
        while got and rest:
            c = _flood(nbr, rest & -rest, rest)
            rest ^= c
            got = table.get(c)
            if got is None:
                got = table[c] = connected(g, c)
        table[s] = got
    return got


def _vertex_decomposable(g: Graph, s: int) -> bool:
    """True only when Ind(g[s]) is pure and vertex decomposable (Provan
    and Billera 1980), for a vertex mask s; such a complex is shellable.
    False may mean only that this rule found no decomposition.

    Woodroofe (Proc. AMS 137, 2009) decides vertex decomposability in the
    sense of Bjorner and Wachs on graphs: Ind(g[s]) is vertex decomposable
    iff g[s] has no edges, or some shedding vertex v has g[s - v] and
    g[s - N[v]] vertex decomposable; those are the deletion and the link
    of v.  v sheds when no independent set of g[s - N[v]] is maximal in
    g[s - v], that is, when none has a neighbor of every vertex of N(v).
    The facets of a complex with a shedding vertex v are those of the
    deletion and v joined to those of the link, so it is pure iff both
    are and alpha(g[s - v]) = alpha(g[s - N[v]]) + 1.  A join is pure and
    vertex decomposable iff each factor is, so the components are decided
    apart (see _joined).  Needs no field and no maximal independent set.

    On a connected mask the rule takes one such v, the first by largest
    degree in g[s] and then lowest label (the order in which _alpha_of
    and _pure branch), and asks its deletion and link alone.  It tries no
    second v, so it never backtracks and a failure ends it at once.  It
    misses no pure vertex-decomposable graph on at most 8 vertices, but
    it misses some, such as the 9-vertex H_U`{_d; the criteria hand every
    mask it leaves unproved to the exact link walk, so no verdict depends
    on its reach.
    """
    return _joined(g, g._memo.setdefault("vd", {}), s, _vd_connected)


def _vd_connected(g: Graph, s: int) -> bool:
    # one vertex is a simplex.  Otherwise commit to the first vertex v of
    # the connected g[s], by largest degree and then lowest label, that
    # sheds with deletion and link of alpha one apart, and decide those two
    if not s & (s - 1):
        return True
    nbr, memo = g._nbr_bits, g._memo
    for v in sorted(_vertices_of(s), key=lambda u: -(nbr[u] & s).bit_count()):
        rest = s & ~(1 << v)
        link = rest & ~nbr[v]
        if _alpha_of(nbr, memo, rest) == _alpha_of(nbr, memo, link) + 1 and _sheds(nbr, s, v):
            vd = memo["vd"]
            return _joined(g, vd, rest, _vd_connected) and _joined(g, vd, link, _vd_connected)
    return False


def _sheds(nbr, s: int, v: int) -> bool:
    # v is a shedding vertex of Ind(g[s]) for the graph with neighbor masks
    # nbr: no independent set of g[s - N[v]] has a neighbor of every vertex
    # of N(v) in s, so none is a facet of the deletion g[s - v]
    return not _dominated(nbr, s & ~(1 << v) & ~nbr[v], s & nbr[v])


def _dominated(nbr, a: int, b: int) -> bool:
    # some independent set inside mask a has a neighbor of every vertex of
    # mask b: branch on the neighbors in a of the vertex of b with the fewest
    if not b:
        return True
    opts, fewest, m = 0, a.bit_count() + 1, b
    while m:
        w = m & -m
        m ^= w
        o = nbr[w.bit_length() - 1] & a
        if o.bit_count() < fewest:
            opts, fewest = o, o.bit_count()
    while opts:
        bit = opts & -opts
        opts ^= bit
        u = nbr[bit.bit_length() - 1]
        if _dominated(nbr, a & ~bit & ~u, b & ~u):
            return True
        a ^= bit  # a set through u was just ruled out
    return False


def _eulerian(g: Graph, s: int) -> bool:
    """Whether every link of Ind(g[s]), the empty face's included, has
    reduced Euler characteristic (-1)^(its dimension).  The link of a face
    F is Ind(g[s - N[F]]), with chi~ = -I(-1) and dimension alpha - 1 from
    the memoized recursions, and lk_F = lk_v(lk_(F-v)), so vertex links
    suffice.  The link of a face of a join is the join of the factors'
    links, chi~ of a join is minus the product, and a factor's own links
    are links of the join (complete the face by a facet of the other
    factor), so a join is Eulerian iff its factors are, and the walk runs
    on components (see _joined); s = 0 is {()}, chi~ = -1 in dimension
    -1.  An isolated vertex is a cone, chi~ = 0, and fails.  Needs no
    field."""
    return _joined(g, g._memo.setdefault("eulerian", {}), s, _eulerian_connected)


def _eulerian_connected(g: Graph, s: int) -> bool:
    # chi~ of the connected g[s] is (-1)^(alpha - 1), and so is that of
    # each vertex link, recursively
    nbr, memo = g._nbr_bits, g._memo
    if -_poly_of(nbr, memo, s) != (1 if _alpha_of(nbr, memo, s) % 2 else -1):
        return False
    table = memo["eulerian"]
    for v in _vertices_of(s):
        if not _joined(g, table, s & ~(1 << v) & ~nbr[v], _eulerian_connected):
            return False
    return True


# _alpha_of, _poly_of and _pure split a mask into components where they
# would branch on it, but only a mask of more than this many vertices.  A
# split floods the component of the branch vertex, and pays when the masks
# it spares visiting outnumber its floods; a mask visit and a flood each
# read about one row per vertex.  Counted on the checks of girth4_planar
# (16) and (30) over q,f2, splitting the masks of 15 and 16 vertices too
# spared 2.7-3.4 masks per added flood, of 13 and 14 vertices 1.4-1.5, but
# of 11 and 12 vertices 0.2-0.4 and of 9 and 10 vertices 0.7-0.9.
_SPLIT_ABOVE = 12


def _alpha_of(nbr, memo: dict, s: int) -> int:
    """alpha(g[S]) for the vertex mask S of the graph with neighbor masks
    nbr, memoized in that graph's memo under S.

    A leaf u of g[S] lies in a maximum independent set (one through its
    neighbor w keeps its size with u in place of w), so the scan for a
    vertex to branch on stops at the first leaf: alpha(S) = 1 +
    alpha(S - N[u]).  Isolated vertices of g[S] are in every maximal
    independent set and add one each.  Otherwise branch on a vertex v of
    largest degree: an independent set either avoids v or contains v and
    avoids N(v).

    Where it would branch, a mask of more than _SPLIT_ABOVE vertices is
    first split: with C the component of v in g[S], flooded from v, and
    C != S, alpha(S) = alpha(C) + alpha(S - C), since no edge joins C to
    S - C, so an independent set of S is one of C beside one of S - C.
    The recursion then visits the masks of each part, not their products.
    """
    got = memo.get(s)
    if got is not None:
        return got
    isolated = 0
    v, deg = -1, 0
    m = s
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        d = (nbr[u] & s).bit_count()
        if d == 1:
            out = 1 + _alpha_of(nbr, memo, s & ~bit & ~nbr[u])
            break
        if d == 0:
            isolated |= bit
        elif d > deg:
            v, deg = u, d
    else:
        if isolated:
            out = isolated.bit_count() + _alpha_of(nbr, memo, s & ~isolated)
        elif s.bit_count() > _SPLIT_ABOVE and (c := _flood(nbr, 1 << v, s)) != s:
            out = _alpha_of(nbr, memo, c) + _alpha_of(nbr, memo, s ^ c)
        else:
            rest = s & ~(1 << v)
            out = max(_alpha_of(nbr, memo, rest), 1 + _alpha_of(nbr, memo, rest & ~nbr[v]))
    memo[s] = out
    return out


def _poly_of(nbr, memo: dict, s: int) -> int:
    """I(g[S]; -1) for the vertex mask S of the graph with neighbor masks
    nbr, where I is the independence polynomial, memoized in that graph's
    memo under ~S, which is negative and so never an alpha key.

    An isolated vertex of g[S] contributes a factor 1 + x to I, which
    vanishes at -1.  At a leaf u with neighbor w, I(S) = I(S - w) -
    I(S - N[w]), and u is isolated in S - w, so I(S; -1) = -I(S - N[w]; -1)
    (Engstrom's fold lemma, Europ. J. Combin. 29, 2008, gives the same).
    The scan stops at the first isolated vertex or leaf; otherwise branch
    on a vertex v of largest degree, I(S) = I(S - v) - I(S - N[v]).  As
    in _alpha_of, a mask of more than _SPLIT_ABOVE vertices is split
    first where it would branch: I(S) = I(C) I(S - C) for the component C
    of v, since the independent sets of S are the unions of one of C and
    one of S - C, their sizes adding.  A factor of 0 leaves the other
    unasked.
    """
    got = memo.get(~s)
    if got is not None:
        return got
    v, deg = -1, 0
    m = s
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        w = nbr[u] & s
        d = w.bit_count()
        if d == 0:
            out = 0
            break
        if d == 1:
            out = -_poly_of(nbr, memo, s & ~w & ~nbr[w.bit_length() - 1])
            break
        if d > deg:
            v, deg = u, d
    else:
        if s.bit_count() > _SPLIT_ABOVE and (c := _flood(nbr, 1 << v, s)) != s:
            out = _poly_of(nbr, memo, c)
            out = out and out * _poly_of(nbr, memo, s ^ c)
        else:
            rest = s & ~(1 << v)
            out = _poly_of(nbr, memo, rest) - _poly_of(nbr, memo, rest & ~nbr[v])
    memo[~s] = out
    return out


def independence_number(g: Graph) -> int:
    return _alpha_of(g._nbr_bits, g._memo, (1 << g.n) - 1)


def independence_euler_characteristic(g: Graph) -> int:
    """Reduced Euler characteristic of the independence complex of g.

    The faces of Ind(g) are the independent sets, so with f_(i-1) of them
    of size i, chi~(Ind g) = sum_i (-1)^(i-1) f_(i-1) = -I(g; -1).
    """
    return -_poly_of(g._nbr_bits, g._memo, (1 << g.n) - 1)


def _not_well_covered(g: Graph, alpha: int) -> bool:
    # a sufficient condition for g, of independence number alpha, not to be
    # well-covered, by Favaron's bound; see is_well_covered
    return 2 * alpha > g.n + g._nbr_bits.count(0)


def is_well_covered(g: Graph) -> bool:
    """True iff every maximal independent set has the same size, from the
    purity walk over each component (see _pure).  Memoized in g.

    The maximal independent sets of a disjoint union are the unions of one
    maximal set per component, so g is well-covered iff each component is.
    The whole graph is split into all its components at once, when the
    memoized is_connected says it has more than one, so a graph of many
    components is walked one at a time; inside a component, _pure splits
    a mask of more than _SPLIT_ABOVE vertices where it would branch.

    Most graphs are rejected before the walk.  A well-covered graph
    without isolated vertices has alpha <= n/2 (Favaron, Discrete Math.
    42, 1982); the k isolated vertices of g lie in every maximal set, so a
    well-covered g has 2 alpha <= n + k.
    """
    got = g._memo.get("well_covered")
    if got is None:
        nbr, memo = g._nbr_bits, g._memo
        full = (1 << g.n) - 1
        got = not _not_well_covered(g, _alpha_of(nbr, memo, full)) and all(
            _pure(nbr, memo, c) for c in ([full] if is_connected(g) else _components(g, full))
        )
        memo["well_covered"] = got
    return got


def _pure(nbr, memo: dict, s: int) -> bool:
    """Whether every maximal independent set of g[S] has size alpha(S),
    for the vertex mask S of the graph with neighbor masks nbr.  The masks
    found pure are memoized in the set memo["pure"] of that graph's memo.

    Take any vertex v of S.  Every maximal independent set of g[S] meets
    N[v], for one that missed it would take v in.  The maximal sets of
    g[S] through a vertex u are u plus the maximal independent sets of
    g[S - N[u]]: a vertex of S outside N[u] that such a set misses has a
    neighbor in it other than u, and conversely.  So g[S] is pure iff, for
    every u in N[v], alpha(S - N[u]) = alpha(S) - 1 and g[S - N[u]] is
    pure.  An independent S is its own one maximal set.

    Before that walk a mask of more than _SPLIT_ABOVE vertices is split
    (see _alpha_of): with C the component of v in g[S] and C != S, the
    maximal independent sets of g[S] are the unions of one of g[C] and
    one of g[S - C], so g[S] is pure iff g[C] and g[S - C] are.

    v is the first vertex of largest degree, tried before its neighbors,
    so the walk first descends along the greedy maximal set that takes a
    vertex of largest degree, lowest first, and deletes its closed
    neighborhood.  Each step of that descent lowers alpha by at least one
    and it ends at an independent mask, so the greedy set is smaller than
    alpha iff some step lowers alpha by more, and the first descent
    rejects such a graph.  The walk stops at the first failure, so a mask
    found not pure is never asked again and is not memoized.
    """
    pure = memo["pure"]
    if s in pure:
        return True
    v, deg = -1, 0
    m = s
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        d = (nbr[u] & s).bit_count()
        if d > deg:
            v, deg = u, d
    if deg and s.bit_count() > _SPLIT_ABOVE and (c := _flood(nbr, 1 << v, s)) != s:
        if not (_pure(nbr, memo, c) and _pure(nbr, memo, s ^ c)):
            return False
    elif deg:
        below = _alpha_of(nbr, memo, s) - 1
        for u in chain((v,), _vertices_of(nbr[v] & s)):
            rest = s & ~nbr[u] & ~(1 << u)
            if _alpha_of(nbr, memo, rest) != below or not _pure(nbr, memo, rest):
                return False
    pure.add(s)
    return True


def is_in_w2(g: Graph) -> bool:
    """True iff g is well-covered and stays well-covered with the same
    independence number after deleting any single vertex: iff g is
    well-covered and every vertex sheds (see _sheds).  Memoized in g.

    Let g be well-covered with independence number alpha and x a vertex.
    A maximal independent set S of g - x is maximal in g when x has a
    neighbor in S, so it has size alpha; otherwise S + x is maximal in g,
    and S has size alpha - 1.  Such an S is an independent set of
    g - N[x] with a neighbor of every vertex of N(x).  Conversely, any
    such set extends, inside g - N[x], to a maximal independent set of
    g - N[x]; it still has a neighbor of every vertex of N(x), so it is
    maximal in g - x, with no neighbor of x.  So g - x is well-covered
    with independence number alpha iff no independent set of g - N[x]
    dominates N(x), which is that x sheds.

    An isolated vertex never sheds, since the empty set dominates its
    empty neighborhood, so no graph with one is in W2 (K1 included); the
    empty graph is, vacuously.
    """
    got = g._memo.get("w2")
    if got is None:
        nbr, full = g._nbr_bits, (1 << g.n) - 1
        got = is_well_covered(g) and all(_sheds(nbr, full, x) for x in range(g.n))
        g._memo["w2"] = got
    return got


def _localizations(g: Graph):
    # (C, C - N(a) - N(b)) for each edge ab, C the component of g holding
    # it: the localization of g at ab is C - N(a) - N(b) beside the other
    # components, which it leaves whole
    nbr = g._nbr_bits
    for c in _components(g, (1 << g.n) - 1):
        for a in _vertices_of(c):
            for b in _vertices_of(nbr[a] & -(2 << a)):
                yield c, c & ~(nbr[a] | nbr[b])


def _not_alpha_critical(g: Graph, alpha: int) -> bool:
    # a sufficient condition for g, of independence number alpha, not to be
    # alpha-critical, by two bounds; see is_alpha_critical
    slack = g.n + g._nbr_bits.count(0) - 2 * alpha
    return slack < 0 or max(map(int.bit_count, g._nbr_bits), default=0) > slack + 1


def is_alpha_critical(g: Graph) -> bool:
    """True iff deleting any edge increases the independence number.

    Decided through edge localizations: an independent set of g - ab larger
    than alpha(g) contains both a and b, so alpha(g - ab) = max(alpha(g),
    alpha(g_ab) + 2) where g_ab is g without N(a) and N(b); and adding a to
    an independent set of g_ab shows alpha(g_ab) <= alpha(g) - 1.  Hence
    the edge ab is critical iff alpha(g_ab) = alpha(g) - 1.  alpha is a sum
    over components, and g_ab leaves every component but the one C of ab
    whole, so the test reads alpha(C - N(a) - N(b)) = alpha(C) - 1, on
    vertex masks of the memoized alpha recursion no larger than C.  The
    verdict is memoized in g.

    Most graphs are rejected before any localization.  An alpha-critical
    graph without isolated vertices has n >= 2 alpha (Erdos and Gallai
    1961) and every degree at most n - 2 alpha + 1 (Hajnal, Canad. J.
    Math. 17, 1965; both in Lovasz and Plummer, Matching Theory, ch. 12).
    Isolated vertices have no edges to make critical, and each of the k in
    g adds one to n and to alpha, so with slack = n + k - 2 alpha an
    alpha-critical g has slack >= 0 and every degree at most slack + 1.
    """
    got = g._memo.get("alpha_critical")
    if got is None:
        nbr, memo = g._nbr_bits, g._memo
        got = memo["alpha_critical"] = not _not_alpha_critical(
            g, _alpha_of(nbr, memo, (1 << g.n) - 1)
        ) and all(
            _alpha_of(nbr, memo, loc) == _alpha_of(nbr, memo, c) - 1
            for c, loc in _localizations(g)
        )
    return got
