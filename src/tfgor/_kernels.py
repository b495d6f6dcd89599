"""Exact rank kernels, in pure Python.

Sparse elimination on dict-of-rows with Markowitz pivot selection (fewest
fill-in, ties broken by lowest (row, col)).  The prime-field kernel uses
modular inverses; the integer kernel is fraction-free, cross-multiplying
the two rows and dividing the result by its content to keep coefficients
small.  Both are exact for arbitrarily large entries.
"""

from __future__ import annotations

from math import gcd

__all__ = ["rank_mod_p", "rank_int"]


def _structures(triples):
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, v in triples:
        if v == 0:
            continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    return rows, cols


def _pick_pivot(rows, cols):
    best = None
    for r, rowd in rows.items():
        lr = len(rowd) - 1
        for c in rowd:
            key = (lr * (len(cols[c]) - 1), r, c)
            if best is None or key < best:
                best = key
    return best[1], best[2]


def _detach_row(rows, cols, r):
    rowd = rows.pop(r)
    for c in rowd:
        owners = cols[c]
        owners.discard(r)
        if not owners:
            del cols[c]
    return rowd


def _set_entry(rows, cols, r, c, v):
    rowd = rows.setdefault(r, {})
    if v == 0:
        if c in rowd:
            del rowd[c]
            owners = cols[c]
            owners.discard(r)
            if not owners:
                del cols[c]
        if not rowd:
            del rows[r]
    else:
        rowd[c] = v
        cols.setdefault(c, set()).add(r)


def rank_mod_p(nrows: int, ncols: int, triples, p: int) -> int:
    """Exact rank over GF(p) of the matrix given as (row, col, value) triples."""
    rows, cols = _structures((r, c, v % p) for r, c, v in triples)
    rank = 0
    while rows:
        r, c = _pick_pivot(rows, cols)
        rank += 1
        prow = _detach_row(rows, cols, r)
        inv = pow(prow[c], -1, p)
        for r2 in list(cols.get(c, ())):
            mult = (rows[r2][c] * inv) % p
            for cc, pv in prow.items():
                nv = (rows.get(r2, {}).get(cc, 0) - mult * pv) % p
                _set_entry(rows, cols, r2, cc, nv)
    return rank


def rank_int(nrows: int, ncols: int, triples) -> int:
    """Exact rank over the rationals of an integer matrix."""
    rows, cols = _structures(triples)
    rank = 0
    while rows:
        r, c = _pick_pivot(rows, cols)
        rank += 1
        prow = _detach_row(rows, cols, r)
        piv = prow[c]
        for r2 in list(cols.get(c, ())):
            f = rows[r2][c]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            new = {cc: a * v for cc, v in rows[r2].items()}
            for cc, pv in prow.items():
                new[cc] = new.get(cc, 0) - b * pv
            new = {cc: v for cc, v in new.items() if v}
            content = 0
            for v in new.values():
                content = gcd(content, v)
                if content == 1:
                    break
            if content > 1:
                new = {cc: v // content for cc, v in new.items()}
            _detach_row(rows, cols, r2)
            for cc, v in new.items():
                _set_entry(rows, cols, r2, cc, v)
    return rank
