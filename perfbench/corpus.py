"""The benchmark's graph corpora: loading, verification and regeneration.

The full corpus is every connected triangle-free graph on 10 vertices, one
canonical graph6 line each, sorted.  It is committed so that set-up never
has to generate it, and verified on every load against a pinned digest,
the count from OEIS A024607 and the defining properties, checked with a
graph6 decoder of its own that shares no code with tfgor.

Run as a script, it regenerates the corpus from the n = 9 level of the
test fixture with ``scripts/generate_corpora.augment_level`` and compares
it byte for byte with the committed file (about 30 s):

    python3 perfbench/corpus.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FULL_PATH = HERE / "data" / "connected_trifree_10.g6"
FULL_SHA256 = "6fda67f309a5cf273ea3f023c461f0b7e12ef194895e857488f8e69877494a47"
FULL_COUNT = 9832  # connected triangle-free graphs on 10 vertices, OEIS A024607

# The toy corpus for the harness self-test: the first lines of the test
# fixture (connected triangle-free graphs on 2..8 vertices).
FIXTURE_PATH = ROOT / "tests" / "fixtures" / "connected_trifree_2to9.g6"
TOY_COUNT = 300


class CorpusError(Exception):
    pass


def decode_graph6(line: str) -> list[int]:
    """Neighbour bitmasks of a graph6 line with fewer than 63 vertices."""
    data = [ord(ch) - 63 for ch in line]
    if not data or any(x < 0 or x > 63 for x in data) or data[0] >= 63:
        raise CorpusError(f"not a small graph6 line: {line!r}")
    n = data[0]
    if len(data) - 1 != (n * (n - 1) // 2 + 5) // 6:
        raise CorpusError(f"graph6 line has the wrong length: {line!r}")
    bits = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if data[1 + k // 6] >> (5 - k % 6) & 1:
                bits[i] |= 1 << j
                bits[j] |= 1 << i
            k += 1
    return bits


def _connected(bits: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        m = frontier
        while m:
            b = m & -m
            reach |= bits[b.bit_length() - 1]
            m ^= b
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(bits)) - 1


def _triangle_free(bits: list[int]) -> bool:
    return all(
        bits[u] & bits[v] == 0
        for u in range(len(bits))
        for v in range(u + 1, len(bits))
        if bits[u] >> v & 1
    )


def verify(lines: list[str], count: int) -> None:
    """Raise CorpusError unless the lines are `count` distinct connected
    triangle-free graphs."""
    if len(lines) != count:
        raise CorpusError(f"corpus has {len(lines)} graphs, expected {count}")
    if len(set(lines)) != len(lines):
        raise CorpusError("corpus repeats a graph6 line")
    for line in lines:
        bits = decode_graph6(line)
        if not (_connected(bits) and _triangle_free(bits)):
            raise CorpusError(f"not connected and triangle-free: {line!r}")


def load(size: str) -> tuple[list[str], str]:
    """Verified corpus lines in file order, and the sha256 of those lines."""
    if size == "full":
        raw = FULL_PATH.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != FULL_SHA256:
            raise CorpusError(f"{FULL_PATH.name}: sha256 {digest} is not the pinned one")
        lines = raw.decode("ascii").splitlines()
        count = FULL_COUNT
    else:
        with open(FIXTURE_PATH, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()][:TOY_COUNT]
        digest = hashlib.sha256("".join(ln + "\n" for ln in lines).encode()).hexdigest()
        count = TOY_COUNT
    verify(lines, count)
    return lines, digest


def regenerate() -> list[str]:
    """The full corpus rebuilt by one augmentation step from n = 9."""
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.path.insert(0, str(ROOT / "src"))
    import generate_corpora
    from tfgor.graphs import parse_graph6

    with open(FIXTURE_PATH, encoding="ascii") as fh:
        level9 = {}
        for ln in fh:
            ln = ln.strip()
            if ln:
                g = parse_graph6(ln)
                if g.n == 9:
                    level9[ln] = g
    return sorted(generate_corpora.augment_level(level9, girth5=False))


def main() -> int:
    lines = regenerate()
    committed = FULL_PATH.read_text(encoding="ascii").splitlines()
    if lines != committed:
        print(f"regenerated corpus differs: {len(lines)} vs {len(committed)} lines")
        return 1
    print(f"regenerated corpus matches {FULL_PATH.name} ({len(lines)} graphs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
