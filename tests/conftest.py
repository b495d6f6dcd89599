import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import read_facets  # noqa: E402
from tfgor import parse_graph6  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_corpus(name):
    with open(FIXTURES / name) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


@pytest.fixture(scope="session")
def corpus_tf_lines():
    """Connected triangle-free graphs on 2..9 vertices, graph6 lines."""
    return load_corpus("connected_trifree_2to9.g6")


@pytest.fixture(scope="session")
def corpus_tf_graphs(corpus_tf_lines):
    return [parse_graph6(ln) for ln in corpus_tf_lines]


@pytest.fixture(scope="session")
def corpus_girth5_lines():
    """Connected graphs of girth >= 5 on 1..10 vertices, graph6 lines."""
    return load_corpus("connected_girth5_1to10.g6")


@pytest.fixture(scope="session")
def rp2():
    """Minimal 6-vertex triangulation of the real projective plane."""
    with open(FIXTURES / "rp2_minimal.facets") as fh:
        return read_facets(fh.read())
