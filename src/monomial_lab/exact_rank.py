"""Exact matrix ranks by sparse column reduction.

A matrix is a list of columns.  Over GF(2) a column is a bitmask (bit =
row index); over GF(p) and Q it is a ``{row: coefficient}`` map.  Each
column is reduced against the pivot columns found before it, where a
column's pivot is its largest row index, until it either takes a new
pivot row or vanishes.  The kernels return the pivot rows as a set-like
view: its size is the rank, and a caller reducing a chain complex from
the top down uses it to clear the next boundary map (a column indexed by
a pivot row of the map above is a combination of earlier columns, so it
would reduce to zero).

Over GF(p) each pivot column is stored with the inverse of its pivot
entry.  Over Q the reduction is fraction-free: c <- a*c - b*pivot with a
and b divided by their gcd, then c divided by its content.  Every column
stays an integer combination of the input columns with a nonzero
coefficient on its own, so the rank over Q is exact and the entries stay
small.  Inputs are not modified.
"""

from __future__ import annotations

from math import gcd


def rank_f2_columns(columns: list[int]):
    """Pivot rows of a GF(2) matrix given as column bitmasks; len() is the rank."""
    pivots: dict[int, int] = {}
    for col in columns:
        cur = col
        while cur:
            lead = cur.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = cur
                break
            cur ^= piv
    return pivots.keys()


def rank_mod_p(columns: list[dict[int, int]], p: int):
    """Pivot rows over GF(p) of a matrix of sparse integer columns; len() is
    the rank."""
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for col in columns:
        cur = {}
        for r, v in col.items():
            v %= p
            if v:
                cur[r] = v
        while cur:
            lead = max(cur)
            entry = pivots.get(lead)
            if entry is None:
                pivots[lead] = (cur, pow(cur[lead], -1, p))
                break
            pcol, inv = entry
            f = cur[lead] * inv % p
            for r, v in pcol.items():
                x = (cur.get(r, 0) - f * v) % p
                if x:
                    cur[r] = x
                else:
                    cur.pop(r, None)
    return pivots.keys()


def rank_bareiss(columns: list[dict[int, int]]):
    """Pivot rows over Q of a matrix of sparse integer columns, by
    fraction-free integer column reduction; len() is the rank."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        cur = {r: v for r, v in col.items() if v}
        while cur:
            g = gcd(*cur.values())
            if g != 1:
                cur = {r: v // g for r, v in cur.items()}
            lead = max(cur)
            pcol = pivots.get(lead)
            if pcol is None:
                pivots[lead] = cur
                break
            a, b = pcol[lead], cur[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                cur = {r: a * v for r, v in cur.items()}
            for r, v in pcol.items():
                x = cur.get(r, 0) - b * v
                if x:
                    cur[r] = x
                else:
                    cur.pop(r, None)
    return pivots.keys()
