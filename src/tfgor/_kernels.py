"""Exact rank kernels, in pure Python.

The standard column reduction of persistent homology (Edelsbrunner,
Letscher and Zomorodian 2002; Bauer, Kerber and Reininghaus 2014): the
columns are reduced left to right, each against the stored pivot columns
keyed by their lowest nonzero row, until it vanishes or its lowest row is
new; then it is stored.  Stored columns have pairwise distinct lowest
rows, so they are linearly independent and span the reduced columns.
Each of the two kernels returns the set of those lowest rows, its pivot
rows: the rank is their number, and homology clears the columns they
index one degree down.

Both take each column as a {row: value} dict of nonzero integers and may
mutate these dicts.  rank_mod_p serves every prime p, 2 included: it
reduces the entries mod p and scales each pivot column to a unit pivot.
rank_int serves the rationals: it is fraction-free, cross-multiplying the
two columns and dividing the result by its content to keep coefficients
small.  Both are exact for any number of rows and any size of entries.
"""

from __future__ import annotations

from math import gcd

__all__ = ["rank_mod_p", "rank_int"]


def rank_mod_p(columns, p: int) -> set[int]:
    """The pivot rows over GF(p) of the integer matrix with these columns."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {r: w for r, v in col.items() if (w := v % p)}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                break
            f = col[low]
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    return set(pivots)


def rank_int(columns) -> set[int]:
    """The pivot rows over the rationals of the integer matrix with these columns."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            g = gcd(piv[low], col[low])
            a, b = piv[low] // g, col[low] // g
            new = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                new[r] = new.get(r, 0) - b * v
            content = gcd(*new.values())
            col = {r: v // content for r, v in new.items() if v}
    return set(pivots)
