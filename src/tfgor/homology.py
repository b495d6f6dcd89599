"""Exact reduced simplicial homology over the rationals and prime fields.

The reduced chain complex uses the ascending-vertex wedge basis: the
boundary of a face drops its s-th smallest vertex with sign (-1)^s, every
vertex maps to the empty face with coefficient +1, and degree -1 is always
present (so the complex {()} is not acyclic).  Betti numbers come from
exact ranks of the boundary maps: the faces are grouped by size in one
pass, and each degree's columns are built straight from an index of the
faces one size down, as {row: +-1} dicts, and handed to the standard
column reduction in _kernels, which reduces them mod p itself.  A cone
(a vertex in every facet) is acyclic and is answered without faces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .complexes import SimplicialComplex

__all__ = [
    "FieldSpec",
    "RATIONALS",
    "GF2",
    "GF3",
    "GF5",
    "reduced_betti",
    "is_k_acyclic",
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
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        if p < 2:
            raise ValueError("prime field needs p >= 2")
        return cls(p)

    @classmethod
    def from_label(cls, label: str) -> "FieldSpec":
        if label == "q":
            return cls(0)
        if label.startswith("f"):
            return cls.prime(int(label[1:]))
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


def _boundary(rows, cols) -> list[dict[int, int]]:
    """Columns of the boundary map from the faces cols to the faces rows,
    each a {row index: +-1} dict."""
    index = {f: k for k, f in enumerate(rows)}
    return [
        {index[f[:s] + f[s + 1:]]: -1 if s % 2 else 1 for s in range(len(f))}
        for f in cols
    ]


def reduced_betti(c: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Dimensions of reduced homology per degree, -1 up to dim."""
    if c.is_void:
        raise ValueError("void complex has no homology")
    d = c.dim
    if set(c.facets[0]).intersection(*c.facets):  # a cone is acyclic
        return dict.fromkeys(range(-1, d + 1), 0)
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(d + 2)]
    for f in c.faces():
        by_size[len(f)].append(f)
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


def is_k_acyclic(c: SimplicialComplex, field: FieldSpec) -> bool:
    """True iff every reduced Betti number vanishes (false for {()})."""
    return not any(reduced_betti(c, field).values())
