"""Exact reduced simplicial homology over the rationals and prime fields.

A complex is a tuple of sorted facet bitmasks, bit v for vertex v: the
form the link walk in criteria holds, and the one complexes.facet_masks
makes of a facet file.  The reduced chain complex uses the
ascending-vertex wedge basis: the boundary of a face drops its s-th
lowest bit with sign (-1)^s, every vertex maps to the empty face (mask 0)
with coefficient +1, and degree -1 is always present (so the complex of
the empty face alone, (0,), is not acyclic).  Betti numbers come from
exact ranks of the boundary maps: the faces are grouped by size as masks
in one pass, and each degree's columns are built straight from an index
of the faces one size down, as {row: +-1} dicts, and handed to the
standard column reduction in _kernels, which reduces them mod p itself.
A cone (a vertex in every facet) is acyclic and is answered without faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

from . import _kernels

__all__ = [
    "FieldSpec",
    "RATIONALS",
    "GF2",
    "GF3",
    "GF5",
    "reduced_betti",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: char 0 means the rationals, a prime p means GF(p)."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"field characteristic {self.char} is not prime")

    @classmethod
    def from_label(cls, label: str) -> "FieldSpec":
        """q for the rationals, fp for GF(p)."""
        if label == "q":
            return cls(0)
        if label.startswith("f"):
            p = int(label[1:])
            if p < 2:
                raise ValueError("prime field needs p >= 2")
            return cls(p)
        raise ValueError(f"unknown field label {label!r}")

    @property
    def is_rationals(self) -> bool:
        return self.char == 0

    @property
    def label(self) -> str:
        return "q" if self.char == 0 else f"f{self.char}"

    def __str__(self):
        return self.label


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def _faces_by_size(facets) -> list[list[int]]:
    """Every face mask of the complex, in one sorted list per face size
    0..max facet size."""
    by_size = [set() for _ in range(max(f.bit_count() for f in facets) + 1)]
    by_size[0].add(0)
    for f in facets:
        bits = []
        while f:
            bits.append(f & -f)
            f &= f - 1
        for k in range(1, len(bits) + 1):
            by_size[k].update(map(sum, combinations(bits, k)))
    return [sorted(s) for s in by_size]


def _boundary(rows, cols) -> list[dict[int, int]]:
    """Columns of the boundary map from the face masks cols to the face
    masks rows, each a {row index: +-1} dict; the bits of a column are
    dropped lowest first, with signs +1, -1, +1, ..."""
    index = {f: k for k, f in enumerate(rows)}
    columns = []
    for f in cols:
        col, sign, rest = {}, 1, f
        while rest:
            b = rest & -rest
            rest ^= b
            col[index[f ^ b]] = sign
            sign = -sign
        columns.append(col)
    return columns


def reduced_betti(facets: tuple[int, ...], field: FieldSpec) -> dict[int, int]:
    """Dimensions of reduced homology per degree, -1 up to dim, of the
    complex with the given sorted facet masks; () is the void complex."""
    if not facets:
        raise ValueError("void complex has no homology")
    d = max(f.bit_count() for f in facets) - 1
    if reduce(and_, facets):  # a cone is acyclic
        return dict.fromkeys(range(-1, d + 1), 0)
    by_size = _faces_by_size(facets)
    ranks = [0] * (d + 3)  # ranks[i+1] = rank of the degree-i boundary map
    for i in range(d + 1):
        columns = _boundary(by_size[i], by_size[i + 1])
        ranks[i + 1] = (
            _kernels.rank_int(columns)
            if field.is_rationals
            else _kernels.rank_mod_p(columns, field.char)
        )
    return {
        i: len(by_size[i + 1]) - ranks[i + 1] - ranks[i + 2] for i in range(-1, d + 1)
    }
