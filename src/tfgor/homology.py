"""Exact reduced simplicial homology over the rationals and prime fields.

The reduced chain complex uses the ascending-vertex wedge basis: the
boundary of a face drops its s-th smallest vertex with sign (-1)^s, every
vertex maps to the empty face with coefficient +1, and degree -1 is always
present (so the complex {()} is not acyclic).  Betti numbers come from
exact ranks of the sparse boundary matrices, whose entries are integers:
matrix_rank hands their columns, as {row: value} dicts, to the standard
column reduction in _kernels.
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
    "SparseMatrix",
    "boundary_matrix",
    "matrix_rank",
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


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix as sorted (row, col, nonzero int value) triples."""

    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if not isinstance(v, int):
                raise ValueError(f"entry {v!r} at ({r},{c}) is not an integer")
            if v == 0:
                raise ValueError(f"stored zero at ({r},{c})")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    def to_dense(self) -> list[list]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out


def _faces_by_size(c: SimplicialComplex, size: int) -> list[tuple[int, ...]]:
    return [f for f in c.faces() if len(f) == size]


def boundary_matrix(c: SimplicialComplex, i: int, field: FieldSpec) -> SparseMatrix:
    """Matrix of the degree-i boundary map, columns the i-faces and rows the
    (i-1)-faces in sorted order."""
    if c.is_void:
        raise ValueError("void complex has no chain complex")
    d = c.dim
    if i < -1 or i > d + 1:
        raise ValueError(f"degree {i} out of range for dim {d}")
    rows = _faces_by_size(c, i)
    cols = _faces_by_size(c, i + 1)
    row_index = {f: k for k, f in enumerate(rows)}
    p = field.char
    entries = []
    for ci, f in enumerate(cols):
        for s in range(len(f)):
            val = 1 if s % 2 == 0 else -1
            if p:
                val %= p
            entries.append((row_index[f[:s] + f[s + 1:]], ci, val))
    return SparseMatrix(len(rows), len(cols), tuple(entries))


def matrix_rank(m: SparseMatrix, field: FieldSpec) -> int:
    """Exact rank of the integer matrix m over the chosen field."""
    columns: dict[int, dict[int, int]] = {}
    for r, c, v in m.entries:
        columns.setdefault(c, {})[r] = v
    ordered = [columns[c] for c in sorted(columns)]
    if field.is_rationals:
        return _kernels.rank_int(ordered)
    return _kernels.rank_mod_p(ordered, field.char)


def reduced_betti(c: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Dimensions of reduced homology per degree, -1 up to dim."""
    if c.is_void:
        raise ValueError("void complex has no homology")
    d = c.dim
    counts = [0] * (d + 2)
    for f in c.faces():
        counts[len(f)] += 1
    ranks = [0] * (d + 3)  # ranks[i+1] = rank of the degree-i boundary map
    if d >= 0 and counts[1]:
        ranks[1] = 1  # every vertex maps to the empty face with coefficient +1
    for i in range(1, d + 1):
        ranks[i + 1] = matrix_rank(boundary_matrix(c, i, field), field)
    return {
        i: counts[i + 1] - ranks[i + 1] - ranks[i + 2] for i in range(-1, d + 1)
    }


def is_k_acyclic(c: SimplicialComplex, field: FieldSpec) -> bool:
    """True iff every reduced Betti number vanishes (false for {()})."""
    return not any(reduced_betti(c, field).values())
