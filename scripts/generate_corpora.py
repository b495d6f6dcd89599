#!/usr/bin/env python3
"""Generate the graph6 fixture corpora under tests/fixtures/.

Enumeration is by augmentation: every connected graph on k+1 vertices
arises from a connected graph on k vertices by attaching one new vertex
to a nonempty subset S of it (delete a non-cut vertex to see this).
Staying triangle-free forces S to be independent; staying at girth >= 5
additionally forbids two members of S sharing a neighbor.  Isomorphism
duplicates are removed with a canonical form: iterated color refinement
followed by a prefix-pruned search for the lexicographically smallest
upper-triangle adjacency bit string among color-preserving labelings.

The script self-checks the counts for small n against a brute-force
enumeration of all labeled graphs.  Run from the repository root:

    python3 scripts/generate_corpora.py
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tfgor.graphs import (  # noqa: E402
    Graph,
    _vertices_of,
    girth,
    is_connected,
    is_triangle_free,
    write_graph6,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def refine_colors(n: int, bits: list[int]) -> list[int]:
    colors = [bits[v].bit_count() for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = bits[v]
            while m:
                b = m & -m
                nb.append(colors[b.bit_length() - 1])
                m ^= b
            sigs.append((colors[v], tuple(sorted(nb))))
        table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_chunks(n: int, bits: list[int]) -> tuple[int, ...]:
    """Lexicographically smallest adjacency column bits over all
    color-preserving vertex orders; a complete isomorphism invariant."""
    if n == 0:
        return ()
    colors = refine_colors(n, bits)
    target = sorted(colors)
    order = [0] * n
    used = [False] * n
    best: list[int] | None = None

    def dfs(i: int, chunks: list[int]):
        nonlocal best
        if i == n:
            if best is None or chunks < best:
                best = chunks.copy()
            return
        need = target[i]
        for v in range(n):
            if used[v] or colors[v] != need:
                continue
            chunk = 0
            for j in range(i):
                chunk = chunk << 1 | (bits[v] >> order[j] & 1)
            chunks.append(chunk)
            if best is None or chunks <= best[: i + 1]:
                used[v] = True
                order[i] = v
                dfs(i + 1, chunks)
                used[v] = False
            chunks.pop()

    dfs(0, [])
    assert best is not None
    return tuple(best)


def chunks_to_graph(n: int, chunks: tuple[int, ...]) -> Graph:
    edges = []
    for i, chunk in enumerate(chunks):
        for j in range(i):
            if chunk >> (i - 1 - j) & 1:
                edges.append((j, i))
    return Graph(n, edges)


def canonical_g6(n: int, bits: list[int]) -> str:
    return write_graph6(chunks_to_graph(n, canonical_chunks(n, bits)))


def independent_subsets(bits: list[int], n: int):
    """Yield all independent vertex subsets as bitmasks (including 0)."""

    def rec(v: int, cur: int):
        if v == n:
            yield cur
            return
        yield from rec(v + 1, cur)
        if bits[v] & cur == 0:
            yield from rec(v + 1, cur | 1 << v)

    yield from rec(0, 0)


def valid_attachment(bits: list[int], mask: int, girth5: bool) -> bool:
    if mask == 0:
        return False
    if not girth5:
        return True
    return all(bits[u] & bits[w] == 0 for u, w in combinations(_vertices_of(mask), 2))


def augment_level(parents: dict[str, "Graph"], girth5: bool) -> dict[str, Graph]:
    out: dict[str, Graph] = {}
    for g in parents.values():
        n = g.n
        bits = list(g._nbr_bits)
        for mask in independent_subsets(bits, n):
            if not valid_attachment(bits, mask, girth5):
                continue
            child = bits + [mask]
            for v in _vertices_of(mask):
                child[v] |= 1 << n
            h = chunks_to_graph(n + 1, canonical_chunks(n + 1, child))
            out.setdefault(write_graph6(h), h)
    return out


def brute_count(n: int, accept) -> int:
    """Count isomorphism classes among all connected labeled graphs on n
    vertices passing the predicate, a function of a Graph; cross-check
    for the augmentation."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for code in range(1 << len(pairs)):
        bits = [0] * n
        for k, (u, v) in enumerate(pairs):
            if code >> k & 1:
                bits[u] |= 1 << v
                bits[v] |= 1 << u
        g = Graph._from_bits(bits)
        if is_connected(g) and accept(g):
            seen.add(canonical_chunks(n, bits))
    return len(seen)


def generate(max_n: int, girth5: bool, start: dict[str, Graph]) -> dict[int, dict[str, Graph]]:
    levels: dict[int, dict[str, Graph]] = {}
    current = start
    n0 = next(iter(start.values())).n
    levels[n0] = current
    for n in range(n0 + 1, max_n + 1):
        current = augment_level(current, girth5)
        levels[n] = current
        print(f"  n={n}: {len(current)} graphs")
    return levels


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    k1 = Graph(1)
    k2 = Graph(2, [(0, 1)])

    print("connected triangle-free, n = 2..9")
    tf_levels = generate(9, girth5=False, start={canonical_g6(2, [2, 1]): k2})
    print("connected girth >= 5, n = 1..10")
    g5_levels = generate(10, girth5=True, start={canonical_g6(1, [0]): k1})

    print("brute-force cross-check (n <= 6):")
    for n in range(2, 7):
        expect = brute_count(n, is_triangle_free)
        got = len(tf_levels[n])
        ok = "ok" if expect == got else "MISMATCH"
        print(f"  triangle-free n={n}: brute={expect} augmented={got} {ok}")
        assert expect == got
    for n in range(1, 7):
        expect = brute_count(n, lambda g: girth(g) >= 5)
        got = len(g5_levels[n])
        ok = "ok" if expect == got else "MISMATCH"
        print(f"  girth>=5 n={n}: brute={expect} augmented={got} {ok}")
        assert expect == got

    tf_path = FIXTURES / "connected_trifree_2to9.g6"
    with open(tf_path, "w") as fh:
        for n in sorted(tf_levels):
            for key in sorted(tf_levels[n]):
                fh.write(key + "\n")
    print(f"wrote {tf_path} ({sum(len(v) for v in tf_levels.values())} graphs)")

    g5_path = FIXTURES / "connected_girth5_1to10.g6"
    with open(g5_path, "w") as fh:
        for n in sorted(g5_levels):
            for key in sorted(g5_levels[n]):
                fh.write(key + "\n")
    print(f"wrote {g5_path} ({sum(len(v) for v in g5_levels.values())} graphs)")


if __name__ == "__main__":
    main()
