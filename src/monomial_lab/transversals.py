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

    The drop test does not scan the kept members once per extension.  A
    kept member h inside t|v meets s in v alone, since h meets s and t
    misses s.  So only the kept members that meet s in one vertex v can
    drop an extension; each is listed once per s as (r, v) with r = h less
    s, and h lies inside t|v exactly when r lies inside t, since r misses
    s and v is in s.

    With m missing members and k listed pairs, the scan tests every pair
    against every missing member: m * k mask tests.  On a large step the
    test is indexed instead.  For each vertex w of some r, `at[w]` is the
    bitset of the positions in the missing list of the members that
    contain w.  The AND of `at[w]` over the vertices of r is the set of
    positions whose member contains r, all of them when r is empty; those
    are the members whose extension by v is dropped, and `drop[v]`
    collects them.  This costs the vertices of the missing members that
    some r uses, plus the vertices of the r, plus m times the number of
    vertices with a drop.  On the few-member steps of small families the
    index costs more to build than the scan, so a step scans while
    m * k <= 8 * (m + k).  Either way the extensions are appended in the
    same order, so `partial` is the same list after every step.
    """
    partial: list[int] = [0]
    for s in masks:
        if s == 0:
            raise ValueError("family contains the empty set; no transversal exists")
        hit = []
        miss = []
        for t in partial:
            (hit if t & s else miss).append(t)
        partial = hit
        # (h less s, the one vertex of s in h) for the kept members h meeting s once
        single = [(h & ~s, v) for h in hit if not (v := h & s) & (v - 1)]
        # k <= 8 implies m * k <= 8 * (m + k) and is cheaper to test
        if (k := len(single)) <= 8 or len(miss) * k <= 8 * (len(miss) + k):
            for t in miss:
                rem = s
                for r, v in single:
                    if not r & ~t:
                        rem &= ~v
                while rem:
                    low = rem & -rem
                    rem ^= low
                    partial.append(t | low)
            continue
        off = 0
        for r, _ in single:
            off |= r
        at: dict[int, int] = {}
        bit = 1
        for t in miss:
            x = t & off
            while x:
                w = x & -x
                x ^= w
                at[w] = at.get(w, 0) | bit
            bit <<= 1
        drop: dict[int, int] = {}
        for r, v in single:
            sup = bit - 1  # every position in `miss`
            while r and sup:
                w = r & -r
                r ^= w
                sup &= at.get(w, 0)
            if sup:
                drop[v] = drop.get(v, 0) | sup
        dropped_at = list(drop.items())
        for i, t in enumerate(miss):
            rem = s
            for v, d in dropped_at:
                if d >> i & 1:
                    rem &= ~v
            while rem:
                low = rem & -rem
                rem ^= low
                partial.append(t | low)
    return tuple(sorted(partial, key=canon_key))
