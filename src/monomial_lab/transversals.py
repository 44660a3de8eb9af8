"""Minimal transversals (hitting sets) of a family of bitmask sets."""

from __future__ import annotations

from .core import canon_key


def minimal_transversals(masks) -> tuple[int, ...]:
    """All inclusion-minimal bitmasks meeting every set in `masks`.

    Berge's incremental construction: `partial` is exactly the family of
    minimal transversals of the sets processed so far.  For the next set
    s, keep the members that hit s and extend each member t that misses
    s by one element v of s, dropping an extension that contains a kept
    member.  No further filter is needed: two distinct extensions t|v
    and t'|v' are neither equal nor nested, since each t misses s and
    the old members form an antichain; an extension cannot lie inside a
    kept member h, since t would then be a smaller transversal than h of
    the earlier sets; and a kept member inside an extension is what the
    check drops.  Exponential in the worst case, fine at desk scale.
    For an empty family the unique minimal transversal is the empty set.
    """
    partial: list[int] = [0]
    for s in masks:
        if s == 0:
            raise ValueError("family contains the empty set; no transversal exists")
        hit = []
        miss = []
        for t in partial:
            (hit if t & s else miss).append(t)
        partial = list(hit)
        for t in miss:
            rem = s
            while rem:
                low = rem & -rem
                rem ^= low
                cand = t | low
                if not any(h & ~cand == 0 for h in hit):
                    partial.append(cand)
    return tuple(sorted(partial, key=canon_key))
