"""Betti tables of squarefree monomial ideals via vertex-subset homology,
and the scans over them: regularity, projective dimension and N_k.

For the quotient S/I and a vertex subset sigma, the fine-graded Betti
number at homological index i equals dim H~_{|sigma|-i-1} of the complex of
squarefree monomials outside I restricted to sigma (Hochster's formula);
the ideal's table is the same data shifted by one homological step.  Only
"saturated" subsets (every vertex covered by a generator inside the
subset, i.e. the lcm-lattice elements) can contribute: any uncovered
vertex is a cone point and kills the homology.

Every table walk visits the saturated sigma in descending-submask order
(`_saturated_sigmas`) and relabels each one's generators onto
0..|sigma|-1 without re-sorting.  The walk restricts the generators by
bitsets: a `MaskIndex` keeps, for each vertex v, the bitset G_v of the
positions of the generators that contain v, and the generators inside
sigma are all positions but the OR of G_v over the vertices outside sigma.
The pruned scans visit sigma near the full support, so that is a few ORs
instead of a subset test per generator.  The generators are listed from
that bitset in their order, and sigma is saturated when their union is
sigma.  The relabelling reads one row of a bit-extract table per byte of
sigma (`complexes._remap`).  The Betti table reads the full homology
profile of every sigma.  Regularity, projective dimension and the N_k
criterion (all three live here, the only code that knows the slot
rules below) maximize over the table (`_scan_max`) and prune the walk on the
size of sigma alone: it steps from one subset big enough to beat the best
value to the next, and never lists the generators of a smaller one.  The
ideal's index-0 Betti numbers sit exactly on the generators, at the rows
of their degrees, where the scan starts; any other saturated sigma has
ideal index i >= 1, so it lies on row |sigma| - i <= |sigma| - 1 and at
quotient index i + 1 <= |sigma|.  Hence regularity skips sigma with
|sigma| - 1 <= the best row so far, and projective dimension skips
|sigma| <= the best index.  `_support_regularity` scans sigma = the
support alone, relabelled by its caller, by the same per-sigma rule
(`_sigma_max`), for the exhaustive campaigns that read every smaller sigma
off the ideal's one-vertex restrictions (see `harness`).

The scan also computes only the homology that can raise the best value.
Profile index idx holds dim H~_{idx-1}, the homology carried by the faces
of size idx, at quotient index m - idx and row idx + 1, where m = |sigma|.
Two facts zero most slots before any boundary map is built.  Taylor's
resolution of S/I (Taylor 1966; Miller-Sturmfels, Combinatorial
Commutative Algebra, 2005) has one basis element at sigma for each set of
generators whose lcm is sigma, at the set's size, so a nonzero slot has
ceil(m / D) <= m - idx <= r, for r generators of degree at most D.  And
every set of fewer than d_min vertices is a face, for d_min the smallest
generator degree, so H~_{idx-1} = 0 for idx <= d_min - 2.  The reg and pd
scans score such a slot 0 (`_reg_value`, `_pd_value`).  The band of a
size m is the range of idx <= m - 2 whose slot scores above the best
value:

    regularity              [best, min(m - 2, m - ceil(m / D))]   Taylor
    projective dimension    [max(d_min - 1, m - r), m - best - 1]  skeleton, Taylor
    N_k, generator degree d [max(d, m - k), m - 2]   (best is d until the end)

So a pd scan ends once best = min(r, |supp| - d_min + 1), often at the
first sigma, the support.  N_k keeps its rule-free band: the Taylor window
[max(d, m - k), m - ceil(m / d)] is empty for m > k d, so its maximum would
fall as m grows, which the walk's size floor does not allow.

A band [lo, hi] needs the boundary ranks of the maps lo..hi+1, so only the
faces of sizes lo-1..hi+1 are listed and reduced (see `complexes`).  The
bands are recomputed when the best value rises, not per sigma.  The best
value rises as exact answers arrive, over every field.  Over Q the walk
reads GF(2) dimensions: a zero GF(2) dimension certifies vanishing over
Q, and a nonzero one that would raise the best value is confirmed at once
by exact elimination, so the best value only rises on a confirmed
rational answer (a 2-torsion hit leaves it) and the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    RATIONALS,
    FieldSpec,
    _check_field,
    exact_rational_hq,
    homology_profile,
    _boundary_ranks,
    _remap,
)
from .core import Ideal, InputError, MaskIndex, _check_ideal, canon_key, mask_to_vars, to_json


def _at_least(sigma: int, supp: int, size: int) -> int:
    """The largest submask of supp that is at most sigma (a submask of
    supp) and has at least `size` vertices, or -1 when there is none.

    Below sigma, the largest submask that first differs from sigma at one
    of its vertices v drops v and takes every vertex of supp below v; the
    lower v is, the larger it is, so the lowest v that leaves enough
    vertices wins."""
    if sigma.bit_count() >= size:
        return sigma
    rest = sigma
    while rest:
        low = rest & -rest
        rest ^= low
        below = rest | (supp & (low - 1))
        if below.bit_count() >= size:
            return below
    return -1


def _saturated_sigmas(gen_masks, supp: int, floor=(0,)):
    """Yield (sigma, m, local) for every sigma of at least floor[0] vertices
    whose vertices are all covered by generators supported inside sigma
    (sigma = 0 included when floor[0] is 0): m = |sigma|, and local holds
    the generators inside sigma, in the order of gen_masks, relabelled onto
    0..m-1 by `_remap`.  floor[0] is read again for every sigma, so a caller
    may raise it mid-walk; the walk steps straight to the next subset of at
    least floor[0] vertices (`_at_least`), so smaller subsets are never
    visited."""
    index = MaskIndex(gen_masks)
    sigma = _at_least(supp, supp, floor[0])
    while sigma >= 0:
        inside = index.inside(sigma)
        restricted = []
        union = 0
        while inside:
            low = inside & -inside
            inside ^= low
            g = gen_masks[low.bit_length() - 1]
            union |= g
            restricted.append(g)
        if union == sigma:
            m, local = _remap(sigma, restricted)
            yield sigma, m, local
        if sigma == 0:
            return
        sigma = _at_least((sigma - 1) & supp, supp, floor[0])


def _band(m: int, best: int, value):
    """The band of size m: the first and last idx <= m - 2 with
    value(m, idx) > best, or None when there is none."""
    live = [idx for idx in range(m - 1) if value(m, idx) > best]
    return (live[0], live[-1]) if live else None


def _sigma_max(m: int, local, field: FieldSpec, best: int, value, band) -> int:
    """Largest of best and value(m, idx) over the nonzero slots of one
    saturated sigma (relabelled generators `local`) in its band (lo, hi).
    Only the boundary maps of the band are reduced; over Q the GF(2)
    dimensions are read, and a hit that would raise best is confirmed over
    Q before it does."""
    lo, hi = band
    h = _boundary_ranks(m, local, field.p or 2, lo, hi + 1)[2]
    for idx in range(lo, hi + 1):
        v = value(m, idx) if h[idx] else 0
        if v > best and (field.p or exact_rational_hq(m, local, idx - 1)):
            best = v
    return best


def _scan_max(gens, field: FieldSpec, best: int, value) -> int:
    """Largest value(m, idx) over the nonzero Betti slots of S/I, or `best`
    when none exceeds it; `gens` may come in any order.

    A slot is a saturated sigma, m = |sigma|, and a profile index idx <= m - 2
    (dim H~_{idx-1}, quotient index m - idx >= 2); `value` scores it, 0 for a
    slot that does not count, and its maximum over idx must not fall as m
    grows.  Each sigma is scanned in its band (`_sigma_max`); the bands
    are recomputed when best rises, and the walk skips every sigma whose
    band is empty.
    """
    _check_field(field)
    # in canonical order the relabelled generators come out canonical too,
    # so equal local complexes share one cache entry
    gens = sorted(gens, key=canon_key)
    supp = 0
    for g in gens:
        supp |= g
    top = supp.bit_count()

    def bands():
        return [_band(m, best, value) for m in range(top + 1)]

    band = bands()
    if band[top] is None:
        return best
    # the empty bands come first: the smallest sigma that can beat best
    floor = [sum(b is None for b in band)]
    for _, m, local in _saturated_sigmas(gens, supp, floor):
        raised = _sigma_max(m, local, field, best, value, band[m])
        if raised > best:
            best = raised
            band = bands()
            if band[top] is None:
                return best
            floor[0] = sum(b is None for b in band)
    return best


def _reg_row(m: int, idx: int) -> int:
    # row 0 sits at the generator degrees; a slot of H~_{idx-1} lies on row idx + 1
    return idx + 1


def _reg_value(top_degree: int):
    """The regularity scan's slot score for generators of degree at most
    `top_degree`: the row (`_reg_row`), or 0 where Taylor's resolution
    leaves the slot zero.  Its quotient index m - idx is the size of a set
    of generators whose lcm is sigma, so at least ceil(m / top_degree)."""
    def value(m: int, idx: int) -> int:
        return idx + 1 if (m - idx) * top_degree >= m else 0

    return value


def _pd_value(count: int, low_degree: int):
    """The projective-dimension scan's slot score for `count` generators of
    degree at least `low_degree`: the quotient index m - idx, or 0 where it
    exceeds the generators (Taylor's resolution) or where every face of
    size idx lies in the full skeleton below `low_degree` (idx <=
    low_degree - 2), whose homology vanishes."""
    def value(m: int, idx: int) -> int:
        return m - idx if m - idx <= count and idx >= low_degree - 1 else 0

    return value


def _support_regularity(m: int, local, field: FieldSpec, best: int) -> int:
    """Largest of best and the rows of the Betti slots of S/I at sigma =
    supp(I) alone, the one slot set no one-vertex restriction of the ideal
    holds.  `local` holds the generators with the support relabelled onto
    0..m-1, in canonical order.  Any relabelling gives an isomorphic
    complex, with the same homology over every field, so the caller scans
    the ideal's twin, relabelled by decreasing vertex degree: the ideals
    with one twin share its value and one cache entry (see `harness`)."""
    value = _reg_value(max(g.bit_count() for g in local))
    band = _band(m, best, value)
    if band is None:
        return best
    return _sigma_max(m, local, field, best, value, band)


@dataclass
class BettiTable:
    """Graded Betti numbers of an ideal or its quotient ring.

    `entries` maps (homological index i, internal degree j) to a positive
    rank; absent means zero.  When requested, `fine` maps (i, sigma-mask)
    to the vertex-subset-graded rank; coarse entries are the fine sums over
    subsets of the matching size.
    """

    subject: str  # "ideal" or "quotient"
    ambient: int
    field: FieldSpec
    entries: dict[tuple[int, int], int]
    fine: dict[tuple[int, int], int] | None = None

    def max_offset(self) -> int:
        return max(j - i for (i, j) in self.entries)

    def max_index(self) -> int:
        return max(i for (i, _) in self.entries)

    def to_json_entries(self) -> list[dict]:
        triples = [{"i": i, "j": j, "rank": r} for (i, j), r in self.entries.items()]
        triples.sort(key=lambda t: (t["i"], t["j"]))
        return triples

    def to_json(self) -> str:
        doc = {
            "subject": self.subject,
            "field": self.field.label,
            "entries": self.to_json_entries(),
        }
        if self.fine is not None:
            doc["fine"] = [
                {"i": i, "sigma": list(mask_to_vars(s)), "rank": r}
                for (i, s), r in sorted(self.fine.items())
            ]
        return to_json(doc)

    def format_grid(self) -> str:
        """Text grid with rows j - i and columns i."""
        if not self.entries:
            return "(empty table)"
        imax = max(i for i, _ in self.entries)
        offsets = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(r)) for r in self.entries.values())
        width = max(width, len(str(imax)), 1) + 2
        header = "j-i".rjust(5) + "".join(str(i).rjust(width) for i in range(imax + 1))
        lines = [header, "-" * len(header)]
        for off in range(offsets[0], offsets[-1] + 1):
            cells = []
            for i in range(imax + 1):
                r = self.entries.get((i, i + off))
                cells.append((str(r) if r else ".").rjust(width))
            lines.append(str(off).rjust(5) + "".join(cells))
        return "\n".join(lines)


def _quotient_fine_entries(I: Ideal, field: FieldSpec):
    """Yield (i, sigma, rank) for every nonzero fine Betti number of S/I.
    The generators of an Ideal are in canonical order, so the relabelled
    ones are too and equal local complexes share one cache entry."""
    for sigma, m, local in _saturated_sigmas(I.gen_masks, I.supp_mask):
        for idx, h in enumerate(homology_profile(m, local, field)):
            if h:
                yield m - idx, sigma, h  # H~_{idx-1} sits at quotient index m - idx


def betti_table(
    I: Ideal,
    field: FieldSpec = RATIONALS,
    fine: bool = False,
    quotient: bool = False,
) -> BettiTable:
    """Exact Betti table of the ideal I (or of S/I with quotient=True)."""
    _check_ideal(I)
    _check_field(field)
    if I.is_zero:
        raise InputError("Betti table of the zero ideal is undefined")
    shift = 0 if quotient else 1
    entries: dict[tuple[int, int], int] = {}
    fine_entries: dict[tuple[int, int], int] | None = {} if fine else None
    for i, sigma, h in _quotient_fine_entries(I, field):
        if i < shift:
            continue
        key = (i - shift, sigma.bit_count())
        entries[key] = entries.get(key, 0) + h
        if fine_entries is not None:
            fine_entries[(i - shift, sigma)] = h
    return BettiTable(
        subject="quotient" if quotient else "ideal",
        ambient=I.ambient,
        field=field,
        entries=entries,
        fine=fine_entries,
    )


def regularity_masks(gens: tuple[int, ...], field: FieldSpec = RATIONALS) -> int:
    """Mask-level regularity; `gens` must be a nonempty minimal generating
    set (antichain of bitmasks), in any order."""
    top_degree = max(g.bit_count() for g in gens)
    return _scan_max(gens, field, top_degree, _reg_value(top_degree))


def regularity(I: Ideal, field: FieldSpec = RATIONALS) -> int:
    """max{j - i : the ideal's Betti table is nonzero at (i, j)}, exact."""
    _check_ideal(I)
    if I.is_zero:
        raise InputError("regularity of the zero ideal is undefined")
    return regularity_masks(I.gen_masks, field)


def projective_dimension_masks(gens: tuple[int, ...], field: FieldSpec = RATIONALS) -> int:
    # the generators of I are first syzygies of S/I; a slot of H~_{idx-1}
    # lies at quotient index m - idx
    return _scan_max(gens, field, 1, _pd_value(len(gens), min(g.bit_count() for g in gens)))


def projective_dimension(I: Ideal, field: FieldSpec = RATIONALS) -> int:
    """max{i : the quotient's Betti table is nonzero at (i, j)}, exact."""
    _check_ideal(I)
    if I.is_zero:
        raise InputError("projective dimension of S/0 is undefined here")
    return projective_dimension_masks(I.gen_masks, field)


def nk_betti_masks(gens: tuple[int, ...], d: int, k: int, field: FieldSpec) -> bool:
    """Betti criterion on generator bitmasks, all of degree d: no Betti
    number at ideal index i < k off the linear degree i + d."""
    # the slot of H~_{idx-1} on sigma has ideal index m - idx - 1 and row
    # idx + 1 >= d; capping the row at d + 1 ends the scan at the first
    # confirmed hit
    def row(m, idx):
        return min(idx + 1, d + 1) if m - idx <= k else 0

    return _scan_max(gens, field, d, row) == d
