"""Stanley-Reisner complexes, vertex-subset restrictions, and exact reduced
simplicial homology over the rationals or a prime field.

The homology engine works on "local" complexes: m vertices labelled by bits
0..m-1, described either by minimal non-faces (the restricted ideal
generators) or by facets.  Faces are enumerated as one big-integer bitmap
over the 2^m subset space, so closure operations are word-parallel shifts.

Boundary ranks come from sparse column reduction (`exact_rank`), with faces
ordered by (size, mask).  Over GF(2) and GF(p) the maps are reduced from
the top dimension down, with clearing: the columns of the boundary map on
size-s faces that are pivot rows of the map on size-(s+1) faces would
reduce to zero, so they are never built.

Rational ranks are certified exact: a dimension that vanishes over GF(2)
also vanishes over Q (ranks can only drop modulo a prime, so reduced
homology can only grow), and the remaining dimensions are confirmed by
fraction-free integer column reduction, which divides each column by its
content and so keeps the entries small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CapacityError, InputError, InternalCheckError, Ideal, canon_key,
                   mask_to_vars, _vars_to_mask)
from .exact_rank import rank_bareiss, rank_f2_columns, rank_mod_p
from .transversals import minimal_transversals

MAX_VERTICES = 26  # face bitmaps take 2^m bits


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: rationals (p=None) or GF(p) for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise InputError(f"{self.p!r} is not prime")

    @property
    def label(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("q", "qq", "rationals", "0"):
            return cls(None)
        if t.startswith("p:"):
            t = t[2:]
        try:
            return cls(int(t))
        except ValueError:
            raise InputError(f"bad field spec {text!r} (use 'q' or 'p:<prime>')") from None

    def __str__(self):
        return self.label


RATIONALS = FieldSpec(None)
GF2 = FieldSpec(2)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list on vertices 1..ambient (stored as bitmasks).

    The void complex (no faces) is (); the irrelevant complex, whose only
    face is the empty set, is (0,).  Facets are kept maximal, deduplicated
    and canonically sorted.
    """

    ambient: int
    facets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.ambient < 0 or self.ambient > 64:
            raise InputError(f"bad ambient {self.ambient}")
        seen = sorted(set(self.facets), key=canon_key)
        maximal = [f for f in seen if not any(f != g and f & ~g == 0 for g in seen)]
        for f in maximal:
            if f >> self.ambient:
                raise InputError("facet outside ambient vertex range")
        object.__setattr__(self, "facets", tuple(maximal))

    @classmethod
    def from_vertex_sets(cls, ambient: int, facets) -> "SimplicialComplex":
        return cls(ambient, tuple(_vars_to_mask(ambient, f) for f in facets))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension: -1 for the irrelevant complex; undefined (error) when void."""
        if self.is_void:
            raise InputError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def facet_vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_to_vars(f) for f in self.facets)


def stanley_reisner(I: Ideal) -> SimplicialComplex:
    """Complex whose faces are the squarefree monomials not lying in I.

    Facets are complements of the minimal transversals of the generator
    supports, so no face enumeration is needed.  The zero ideal gives the
    full simplex.
    """
    full = (1 << I.ambient) - 1
    covers = minimal_transversals(I.gen_masks)
    return SimplicialComplex(I.ambient, tuple(full ^ t for t in covers))


def restrict_complex(C: SimplicialComplex, sigma) -> SimplicialComplex:
    """Subcomplex of faces contained in the vertex subset sigma."""
    smask = sigma if isinstance(sigma, int) else _vars_to_mask(C.ambient, sigma)
    if smask >> C.ambient:
        raise InputError("restriction set outside ambient vertex range")
    if C.is_void:
        return C
    return SimplicialComplex(C.ambient, tuple(f & smask for f in C.facets))


def _remap(sigma: int, masks) -> tuple[int, tuple[int, ...]]:
    """Relabel the vertices of sigma as bits 0..m-1, keeping their order,
    and return (m, the masks relabelled).  Every mask must lie inside sigma.
    The relabelling is monotone on masks, so masks listed in canonical order
    come out in canonical order."""
    pos: dict[int, int] = {}
    rem = sigma
    while rem:
        low = rem & -rem
        rem ^= low
        pos[low] = 1 << len(pos)
    local = []
    for g in masks:
        lg = 0
        while g:
            low = g & -g
            g ^= low
            lg |= pos[low]
        local.append(lg)
    return len(pos), tuple(local)


# --- face bitmaps ------------------------------------------------------------

_PATTERNS: dict[int, list[tuple[int, int]]] = {}


def _bit_patterns(m: int) -> list[tuple[int, int]]:
    """For each vertex bit b: (indicator of subset-indices with bit b unset, 2^b)."""
    pats = _PATTERNS.get(m)
    if pats is None:
        pats = []
        total = 1 << m
        for b in range(m):
            step = 1 << b
            block = (1 << step) - 1
            width = 2 * step
            pat = block
            while width < total:
                pat |= pat << width
                width *= 2
            pats.append((pat, step))
        _PATTERNS[m] = pats
    return pats


def _face_bitmap_from_nonfaces(m: int, nonfaces) -> int:
    """Bitmap of faces (subset indices) given the minimal non-faces."""
    if m > MAX_VERTICES:
        raise CapacityError(f"{m} vertices exceeds homology engine limit {MAX_VERTICES}")
    total = 1 << m
    nf = 0
    for g in nonfaces:
        nf |= 1 << g
    for pat, step in _bit_patterns(m):
        nf |= (nf & pat) << step
    return ~nf & ((1 << total) - 1)


def _face_bitmap_from_facets(m: int, facets) -> int:
    if m > MAX_VERTICES:
        raise CapacityError(f"{m} vertices exceeds homology engine limit {MAX_VERTICES}")
    total = 1 << m
    fm = 0
    for f in facets:
        fm |= 1 << f
    for pat, step in _bit_patterns(m):
        fm |= (fm & (pat << step)) >> step
    return fm


def _faces_by_size(m: int, bitmap: int) -> list[list[int]]:
    """Face masks grouped by cardinality, each group in ascending mask order."""
    groups: list[list[int]] = [[] for _ in range(m + 1)]
    word_index = 0
    while bitmap:
        word = bitmap & 0xFFFFFFFFFFFFFFFF
        bitmap >>= 64
        base = word_index << 6
        while word:
            low = word & -word
            mask = base + low.bit_length() - 1
            groups[mask.bit_count()].append(mask)
            word ^= low
        word_index += 1
    while groups and not groups[-1]:
        groups.pop()
    return groups


def _boundary_columns_f2(small: list[int], big: list[int]) -> list[int]:
    """Boundary matrix over GF(2) as column bitmasks (bit = row index)."""
    index = {f: i for i, f in enumerate(small)}
    cols = []
    for face in big:
        col = 0
        rem = face
        while rem:
            low = rem & -rem
            rem ^= low
            col |= 1 << index[face ^ low]
        cols.append(col)
    return cols


def _boundary_rows_signed(small: list[int], big: list[int]) -> list[dict[int, int]]:
    """Signed boundary matrix as sparse columns, one {row index: +-1} map
    per face of `big` (rows index `small`).

    Vertices of each face are taken ascending; removing the t-th smallest
    contributes sign (-1)^t.
    """
    index = {f: i for i, f in enumerate(small)}
    cols = []
    for face in big:
        col = {}
        sign = 1
        rem = face
        while rem:
            low = rem & -rem
            rem ^= low
            col[index[face ^ low]] = sign
            sign = -sign
        cols.append(col)
    return cols


def _cleared_ranks(groups: list[list[int]], p: int) -> tuple[int, ...]:
    """Boundary ranks over GF(p): entry s is the rank of the map from size-s
    to size-(s-1) chains.  The maps are reduced from the top down, and the
    faces that are pivot rows of the map above are left out as columns."""
    ranks = [0] * (len(groups) + 1)
    pivots = ()
    for s in range(len(groups) - 1, 0, -1):
        big = groups[s]
        if pivots:
            big = [f for i, f in enumerate(big) if i not in pivots]
        if p == 2:
            pivots = rank_f2_columns(_boundary_columns_f2(groups[s - 1], big))
        else:
            pivots = rank_mod_p(_boundary_rows_signed(groups[s - 1], big), p)
        ranks[s] = len(pivots)
    return tuple(ranks)


# --- homology profiles -------------------------------------------------------
#
# A profile is a tuple h of length m+1 with h[q+1] = dim H~_q, q = -1..m-1.
# Conventions: void complex -> all zeros; irrelevant complex -> h[-1] = 1.

_F2_DATA: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_PROFILES: dict[tuple[int, tuple[int, ...], int | None], tuple[int, ...]] = {}
_QRANKS: dict[tuple[int, tuple[int, ...], int], int] = {}


def _chain_groups(m: int, nonfaces: tuple[int, ...]) -> list[list[int]]:
    return _faces_by_size(m, _face_bitmap_from_nonfaces(m, nonfaces))


def _f2_counts_ranks(m: int, nonfaces: tuple[int, ...]):
    """Face counts per size and GF(2) boundary ranks, cached."""
    key = (m, nonfaces)
    data = _F2_DATA.get(key)
    if data is None:
        groups = _chain_groups(m, nonfaces)
        data = (tuple(len(g) for g in groups), _cleared_ranks(groups, 2))
        _F2_DATA[key] = data
    return data


def _profile_from(counts, ranks, m: int) -> tuple[int, ...]:
    h = [0] * (m + 1)
    for s, c in enumerate(counts):
        nxt = ranks[s + 1] if s + 1 < len(ranks) else 0
        h[s] = c - ranks[s] - nxt
    euler_faces = sum(c if s % 2 else -c for s, c in enumerate(counts))
    euler_hom = sum(v if s % 2 else -v for s, v in enumerate(h))
    if euler_faces != euler_hom:
        raise InternalCheckError(
            f"Euler characteristic mismatch: faces {euler_faces}, homology {euler_hom}")
    return tuple(h)


def _exact_rank_q(m: int, nonfaces: tuple[int, ...], s: int) -> int:
    """Exact rank over Q of the boundary map from size-s to size-(s-1) chains."""
    key = (m, nonfaces, s)
    r = _QRANKS.get(key)
    if r is None:
        counts, f2_ranks = _f2_counts_ranks(m, nonfaces)
        if s < 1 or s >= len(counts):
            r = 0
        elif f2_ranks[s] == min(counts[s - 1], counts[s]):
            # GF(2) rank is a lower bound for the rational rank
            r = f2_ranks[s]
        else:
            groups = _chain_groups(m, nonfaces)
            r = len(rank_bareiss(_boundary_rows_signed(groups[s - 1], groups[s])))
        _QRANKS[key] = r
    return r


def exact_rational_hq(m: int, nonfaces: tuple[int, ...], q: int) -> int:
    """dim H~_q over Q for one dimension, with the GF(2) zero certificate."""
    counts, f2_ranks = _f2_counts_ranks(m, nonfaces)
    s = q + 1
    if s < 0 or s >= len(counts):
        return 0
    nxt = f2_ranks[s + 1] if s + 1 < len(f2_ranks) else 0
    if counts[s] - f2_ranks[s] - nxt == 0:
        return 0
    h = counts[s] - _exact_rank_q(m, nonfaces, s) - _exact_rank_q(m, nonfaces, s + 1)
    if h < 0:
        raise InternalCheckError(f"negative homology dimension {h} at q={q}")
    return h


def homology_profile(m: int, nonfaces: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dimensions of the complex with the given minimal
    non-faces on m local vertices; tuple index q+1 holds dim H~_q."""
    key = (m, nonfaces, field.p)
    prof = _PROFILES.get(key)
    if prof is not None:
        return prof
    if field.p == 2:
        counts, ranks = _f2_counts_ranks(m, nonfaces)
        prof = _profile_from(counts, ranks, m)
    elif field.p is not None:
        groups = _chain_groups(m, nonfaces)
        counts = tuple(len(g) for g in groups)
        prof = _profile_from(counts, _cleared_ranks(groups, field.p), m)
    else:
        prof = tuple(exact_rational_hq(m, nonfaces, q) for q in range(-1, m))
    _PROFILES[key] = prof
    return prof


def clear_caches() -> None:
    """Drop memoized homology data (mainly for long-running processes)."""
    _F2_DATA.clear()
    _PROFILES.clear()
    _QRANKS.clear()


def reduced_homology_dims(C: SimplicialComplex, field: FieldSpec = RATIONALS) -> dict[int, int]:
    """Exact reduced homology dimensions, as {dimension p: dim H~_p}.

    Entries run from p = -1 up to dim(C); the void complex gives {} (all
    homology zero).  Independent of facet input order.
    """
    if C.is_void:
        return {}
    verts = 0
    for f in C.facets:
        verts |= f
    m, local_facets = _remap(verts, C.facets)
    nonfaces = ~_face_bitmap_from_facets(m, local_facets) & ((1 << (1 << m)) - 1)
    # the minimal non-faces are the non-faces with no non-face one vertex smaller
    above = 0
    for pat, step in _bit_patterns(m):
        above |= (nonfaces & pat) << step
    minimal = _faces_by_size(m, nonfaces & ~above)  # canonical (size, mask) order
    prof = homology_profile(m, tuple(g for group in minimal for g in group), field)
    out = {}
    top = C.dim
    for q in range(-1, top + 1):
        out[q] = prof[q + 1] if q + 1 < len(prof) else 0
    return out
