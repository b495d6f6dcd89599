"""Simplicial complexes as facet files give them, and the independence
complex of a graph.

A SimplicialComplex is stored by its facets (inclusion-maximal faces), as
sorted label tuples, on a ground set that may strictly contain their
union.  The complex {()} of the empty face alone is the default "empty"
value; the void complex (no faces at all) exists as a flagged special
case.  Homology and the criteria work on sorted facet bitmasks instead,
and facet_masks is the one conversion; it rejects the void complex.
"""

from __future__ import annotations

from .graphs import Graph, maximal_independent_sets

__all__ = [
    "SimplicialComplex",
    "independence_complex",
    "parse_facets",
    "facet_masks",
]


def _as_face(f) -> tuple[int, ...]:
    t = tuple(sorted(f))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in face {t}")
    return t


def _maximal_only(cands) -> tuple[tuple[int, ...], ...]:
    sets = sorted({frozenset(c) for c in cands}, key=len, reverse=True)
    kept: list[frozenset] = []
    for s in sets:
        if not any(s <= k for k in kept):
            kept.append(s)
    return tuple(sorted(tuple(sorted(s)) for s in kept))


class SimplicialComplex:
    """Facet-based simplicial complex on a ground set of integer labels."""

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


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex of independent sets of g, on the ground set 0..n-1."""
    return SimplicialComplex(
        range(g.n), tuple(maximal_independent_sets(g)), validate=False
    )


def parse_facets(text: str) -> SimplicialComplex:
    """Parse the facet-list text format: one face per line, whitespace
    separated nonnegative integer labels, lines starting with '#' ignored.
    Non-maximal lines are absorbed; no lines at all gives {()}.
    """
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            labels = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed facet line {ln!r}") from None
        if any(x < 0 for x in labels):
            raise ValueError(f"line {lineno}: negative label in {ln!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"line {lineno}: duplicate vertex in {ln!r}")
        gens.append(tuple(labels))
    return SimplicialComplex.from_faces(gens)


def facet_masks(c: SimplicialComplex) -> tuple[int, ...]:
    """The facets of c as sorted vertex bitmasks, the form homology and
    the criteria take.  Labels become bits by rank, so a large label makes
    no large mask and the vertex order, hence every boundary sign, stays."""
    if c.is_void:
        raise ValueError("operation undefined on the void complex")
    bit = {x: 1 << i for i, x in enumerate(sorted({x for f in c.facets for x in f}))}
    return tuple(sorted(sum(bit[x] for x in f) for f in c.facets))
