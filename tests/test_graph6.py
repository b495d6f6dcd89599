import random
import time
from itertools import combinations

import pytest

from oracles import reference_graph6
from tfgor import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)


def test_parse_k2():
    assert parse_graph6("A_") == complete_graph(2)
    assert reference_graph6(2, [(0, 1)]) == "A_"


def test_parse_c5():
    # column-major upper-triangle packing of edges 01,12,23,34,04
    c5 = cycle_graph(5)
    assert reference_graph6(5, c5.edges()) == "Dhc"
    assert parse_graph6("Dhc") == c5


def test_parse_two_isolated():
    assert parse_graph6("A?") == Graph(2)


def test_header_allowed():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


def test_parse_errors():
    # each message in full, so a faster decoder keeps them
    cases = [
        ("A" + chr(127), "illegal character in graph6 string"),
        ("D_", "graph6 body has 1 bytes, expected 2 for n=5"),  # truncated
        ("D_cc", "graph6 body has 3 bytes, expected 2 for n=5"),
        # n=2 needs one pair bit; set a padding bit instead
        ("A" + chr(63 + 0b000100), "nonzero padding bits in graph6 string"),
        ("A" + chr(63 + 0b010000), "nonzero padding bits in graph6 string"),
        ("D" + chr(63) + chr(63 + 1), "nonzero padding bits in graph6 string"),
        ("   ", "empty graph6 string"),
        ("~A", "malformed graph6 length prefix"),
        ("~~A", "malformed graph6 length prefix"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_graph6(text)


def test_roundtrip_random():
    rng = random.Random(17)
    sizes = [rng.randint(0, 13) for _ in range(100)] + [61, 62, 63, 64, 70]
    for n in sizes:
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        s = reference_graph6(n, g.edges())
        assert parse_graph6(s) == g
        assert write_graph6(g) == s


def test_roundtrip_every_n_up_to_70():
    # every length form up to n = 70 (the 4-byte one from 63), at several
    # densities, through write_graph6; and past one 4096-bit chunk of the
    # body (n = 92) and several (n = 200)
    rng = random.Random(29)
    for n in list(range(71)) + [91, 92, 93, 200]:
        for p in (0.1, 0.5, 0.9):
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            s = write_graph6(g)
            assert parse_graph6(s) == g, (n, p)
            assert write_graph6(parse_graph6(s)) == s, (n, p)


def test_roundtrip_large_n():
    g = Graph(70, [(0, 1), (68, 69)])
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_roundtrip_3000_vertices_is_linear():
    # the body is decoded through one bit string, with no big integer
    # shifted once per byte
    rng = random.Random(3)
    n = 3000
    edges = [(i, i + 1) for i in range(n - 1)] + [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    g = Graph(n, edges)
    start = time.perf_counter()
    assert parse_graph6(write_graph6(g)) == g
    assert time.perf_counter() - start < 2.0


def test_edge_list_roundtrip():
    g = cycle_graph(6)
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_k2_example():
    assert parse_edge_list("2 1\n0 1\n") == complete_graph(2)


def test_edge_list_errors():
    # every error names its line; blank lines are counted
    cases = [
        ("", "line 1: expected header"),
        ("\n\n", "line 3: expected header"),
        ("3\n0 1\n", "line 1: expected header"),
        ("x 1\n0 1\n", "line 1: expected header"),
        # only ASCII digits make an integer: no '_', '+' or other scripts
        ("1_0 1\n0 1\n", "line 1: expected header"),
        ("9" * 5000 + " 0\n", "line 1: expected header"),
        ("3 2\n0 1\n", "line 1: expected 2 edge lines, got 1"),
        ("3 -1\n", "line 1: negative count"),
        ("-3 0\n", "line 1: negative count"),
        # more vertices than an edge list may declare, before any row is made
        ("\n100000000 0\n", "line 2: 100000000 vertices exceed the limit of 10000"),
        ("10001 0\n", "line 1: 10001 vertices exceed the limit of 10000"),
        ("3 1\n0 a\n", "line 2: expected edge line"),
        ("3 1\n0 1 2\n", "line 2: expected edge line"),
        ("3 1\n+0 1\n", "line 2: expected edge line"),
        ("10 1\n0 1_0\n", "line 2: expected edge line"),
        ("3 1\n\u0661 2\n", "line 2: expected edge line"),
        ("\n3 1\n\n0 5\n", r"line 4: edge \(0, 5\) out of range for n=3"),
        ("3 2\n0 1\n\n2 2\n", "line 4: loop edge at vertex 2"),
        ("3 2\n0 1\n1 0\n", r"line 3: duplicate edge \(1, 0\)"),
        ("3 3\n1 2\n0 1\n\n1 2\n", r"line 5: duplicate edge \(1, 2\)"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_edge_list(text)
    assert parse_edge_list("10000 1\n0 9999\n").edges() == [(0, 9999)]
