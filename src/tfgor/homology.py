"""Exact reduced simplicial homology over the rationals and prime fields.

A complex is a tuple of sorted facet bitmasks, bit v for vertex v: the
form the link walk in criteria holds, and the one parse_facets makes of
a facet file.  The reduced chain complex uses the
ascending-vertex wedge basis: the boundary of a face drops its s-th
lowest bit with sign (-1)^s, every vertex maps to the empty face (mask 0)
with coefficient +1, and degree -1 is always present (so the complex of
the empty face alone, (0,), is not acyclic).  Betti numbers come from
exact ranks of the boundary maps, in one pass from the top degree down:
the faces one size down are found as the boundaries of the faces of each
size, plus the facets of that size, numbered in the order they are found,
and each column is built in the same loop; only two face sizes are held
at a time.  A column is a {row: +-1} dict, reduced mod p for every prime
p, 2 included, or fraction-free over the integers for the rationals (see
_kernels).  The kernels return their pivot rows, and the rank is their
number.  With clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011; Bauer, Kerber and
Reininghaus, PHAT, 2014), a column whose index is a pivot row of the map
one degree up is never reduced: that map's reduced column with this
lowest row is a cycle, so the column is a combination of earlier ones
and reduces to zero, leaving the rank unchanged.  That needs the rows of
one map and the columns of the next in one shared order, which the
discovery order is.  A cone (a vertex in every facet) is acyclic and is
answered without faces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import and_

from . import _kernels

__all__ = [
    "FieldSpec",
    "RATIONALS",
    "GF2",
    "GF3",
    "GF5",
    "parse_facets",
    "reduced_betti",
]

_LABEL = re.compile(r"-?[0-9]+")


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
        """q for the rationals, f and the ASCII digits of a prime p, with no
        leading zero, for GF(p): only the labels that .label gives."""
        if label == "q":
            return cls(0)
        if re.fullmatch("f[1-9][0-9]*", label) and _is_prime(p := int(label[1:])):
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


def parse_facets(text: str) -> tuple[int, ...]:
    """Parse the facet-list text format: one face per line, whitespace
    separated labels of ASCII digits, lines starting with '#' ignored.
    Returns the sorted, inclusion-maximal facet masks, each label the bit
    of its rank among all labels, so a large label makes no large mask
    and the vertex order, hence every boundary sign, stays.  Non-maximal
    lines are absorbed; no lines at all give (0,), the empty face alone.
    """
    faces = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        try:
            if not all(map(_LABEL.fullmatch, toks)):
                raise ValueError
            face = frozenset(map(int, toks))
        except ValueError:  # no ASCII integer, or one past int's digit limit
            raise ValueError(f"line {lineno}: malformed facet line {ln!r}") from None
        if any(t[0] == "-" for t in toks):
            raise ValueError(f"line {lineno}: negative label in {ln!r}")
        if len(face) != len(toks):
            raise ValueError(f"line {lineno}: duplicate vertex in {ln!r}")
        faces.add(face)
    # a face is absorbed by a larger kept one, which holds each of its
    # vertices: only the kept faces through its rarest vertex are tested
    kept: list[frozenset] = []
    through: dict[int, list[frozenset]] = {}
    for f in sorted(faces, key=len, reverse=True):
        rarest = min((through.get(x, ()) for x in f), key=len)
        if not any(f <= k for k in rarest):
            kept.append(f)
            for x in f:
                through.setdefault(x, []).append(f)
    bit = {x: 1 << i for i, x in enumerate(sorted(through))}
    return tuple(sorted(sum(map(bit.get, f)) for f in kept)) or (0,)


def _boundaries(facets):
    """The boundary maps of the complex, top down: for each face size k
    from the largest facet's down to 1, yield the faces of size k and the
    columns of their map to the faces of size k-1.  The faces of size k-1
    are numbered in the order the columns meet them, then the facets of
    that size, and the next map takes them as its columns in that order.
    A column drops the bits of its face lowest first, as a {row: +-1}
    dict with signs +1, -1, +1, ..."""
    by_size: dict[int, list[int]] = {}
    for f in facets:
        by_size.setdefault(f.bit_count(), []).append(f)
    top = max(by_size)
    faces = by_size[top]
    for k in range(top, 0, -1):
        index: dict[int, int] = {}
        row = index.setdefault
        columns = []
        for f in faces:
            rest, col, sign = f, {}, 1
            while rest:
                b = rest & -rest
                rest ^= b
                col[row(f ^ b, len(index))] = sign
                sign = -sign
            columns.append(col)
        for f in by_size.get(k - 1, ()):
            row(f, len(index))
        yield faces, columns
        faces = list(index)


def reduced_betti(facets: tuple[int, ...], field: FieldSpec) -> dict[int, int]:
    """Dimensions of reduced homology per degree, -1 up to dim, of the
    complex with the given sorted facet masks; () is the void complex."""
    if not facets:
        raise ValueError("void complex has no homology")
    d = max(f.bit_count() for f in facets) - 1
    if reduce(and_, facets):  # a cone is acyclic
        return dict.fromkeys(range(-1, d + 1), 0)
    sizes = [1] * (d + 2)  # sizes[k] = number of faces of size k
    ranks = [0] * (d + 3)  # ranks[k] = rank of the map from the faces of size k
    cleared = set()  # pivot rows of the map above, each a column reducing to zero
    for faces, columns in _boundaries(facets):
        k = faces[0].bit_count()
        sizes[k] = len(faces)
        columns = [col for j, col in enumerate(columns) if j not in cleared]
        if field.is_rationals:
            cleared = _kernels.rank_int(columns)
        else:
            cleared = _kernels.rank_mod_p(columns, field.char)
        ranks[k] = len(cleared)
    return {i: sizes[i + 1] - ranks[i + 1] - ranks[i + 2] for i in range(-1, d + 1)}
