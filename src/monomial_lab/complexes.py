"""Stanley-Reisner complexes, Alexander duals, vertex-subset restrictions,
and exact reduced simplicial homology over the rationals or a prime field.

The homology engine works on "local" complexes: m vertices labelled by bits
0..m-1, described either by minimal non-faces (the restricted ideal
generators) or by facets.  Faces are enumerated as one big-integer bitmap
over the 2^m subset space, so closure operations are word-parallel shifts.

The engine reduces the relative chain complex C~(D)/C~(st v), not C~(D).
A vertex star st(v), the faces f with f + v a face, is a cone, so its
augmented chain complex is acyclic over Z, and the long exact sequence of
the pair gives H~(D) = H(C~(D)/C~(st v)) over every coefficient ring
(excision; equally, the acyclic matching of discrete Morse theory that
pairs f with f + v).  Its basis is the faces f with v not in f and f + v
not a face, read off the face bitmap with one shift and two ANDs.  The
star pairs each face containing v with one that does not, so v is the
vertex in the most faces (one AND and popcount per vertex), which leaves
the fewest, ties to the lowest; D itself is kept when no vertex is a face
(m = 0, the void complex, every vertex a non-face).  The boundary of a
basis face drops the facets that lie in the star; the signs are those of
D.  Only one star is taken off: a second one is not exact in general,
since st(u) meets lk(v) in a subcomplex that need not be acyclic.  The
counts, ranks and dimensions below are those of the relative complex.  The
Euler check still holds, since the augmented star has Euler characteristic
0; clearing holds for any based chain complex; and the relative complex is
a free Z-complex with D's homology, so the GF(2) zero certificate and the
exact rational confirmation below apply to it unchanged.

Boundary ranks come from sparse column reduction (`exact_rank`), with
faces ordered by (size, mask).  A request names a band of boundary maps,
lo..hi (the map on size-s faces is map s): only the faces of sizes
lo-1..hi are listed, by AND-ing the relative face bitmap with the mask of
the subset indices that have lo-1..hi bits set and reading the result
once, so the faces keep the (size, mask) order.  The full profile is the
band of every map; the Betti scans ask for the band that can still raise
their best value (see `betti`).  Over GF(2) and GF(p) the maps of a band
are reduced from the top of the band down, with clearing: the columns of
the boundary map on size-s faces that are pivot rows of the map on
size-(s+1) faces would reduce to zero, so they are never built.  The
counts of the listed sizes and the ranks reduced so far are cached per
complex and field, so a later, wider request reduces only the maps it
still lacks.  Every rank is checked against its matrix shape and every
dimension for h >= 0, and full profiles against the Euler characteristic,
also under -O.

Rational ranks are certified exact: a dimension that vanishes over GF(2)
also vanishes over Q (ranks can only drop modulo a prime, so reduced
homology can only grow), and the remaining dimensions are confirmed by
fraction-free integer column reduction of the maps on either side, each
built from the faces of its two sizes only.  The reduction divides each
column by its content and so keeps the entries small.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (CapacityError, InputError, InternalCheckError, Ideal, canon_key,
                   mask_to_vars, minimalize_masks, _check_ideal, _is_int, _subset_mask,
                   _vars_to_mask)
from .exact_rank import rank_bareiss, rank_f2_columns, rank_mod_p
from .transversals import minimal_transversals

MAX_VERTICES = 26  # face bitmaps take 2^m bits


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41, exact below
    _MR_EXACT_BELOW; larger values raise InputError."""
    if p < 2:
        return False
    if p >= _MR_EXACT_BELOW:
        raise InputError(f"{p} is too large: primality is decided exactly only "
                         f"below {_MR_EXACT_BELOW}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: rationals (p=None) or GF(p) for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if not _is_int(self.p):
            raise InputError(f"field characteristic must be None or an int, got {self.p!r}")
        if not _is_prime(self.p):
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
        if t.isascii() and t.isdigit():  # no sign, underscore, space or non-ASCII digit
            try:
                return cls(int(t))
            except ValueError:
                pass
        raise InputError(f"bad field spec {text!r} (use 'q' or 'p:<prime>')")

    def __str__(self):
        return self.label


RATIONALS = FieldSpec(None)
GF2 = FieldSpec(2)


def _check_field(field) -> None:
    """`field` is a FieldSpec: the field check of every public entry point."""
    if not isinstance(field, FieldSpec):
        raise InputError(f"field must be a FieldSpec, got {field!r}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list on vertices 1..ambient (stored as bitmasks).

    The void complex (no faces) is (); the irrelevant complex, whose only
    face is the empty set, is (0,).  Every facet must be an int mask inside
    the ambient vertex range.  Facets are kept maximal, deduplicated and
    canonically sorted: the maximal facets are the complements of the
    minimal complements (`minimalize_masks`).
    """

    ambient: int
    facets: tuple[int, ...] = ()

    def __post_init__(self):
        if not _is_int(self.ambient) or not 0 <= self.ambient <= 64:
            raise InputError(f"bad ambient {self.ambient!r}")
        facets = tuple(self.facets)
        full = (1 << self.ambient) - 1
        for f in facets:
            if not _is_int(f) or f < 0 or f & ~full:
                raise InputError(f"facet {f!r} outside ambient vertex range")
        maximal = sorted((full ^ c for c in minimalize_masks(full ^ f for f in facets)),
                         key=canon_key)
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


# One query asks for the dual of the same ideal from several places
# (height, S2, cd, the bound reports), so one entry serves it; see
# `clear_caches`.
@functools.lru_cache(maxsize=1)
def _dual_of(ambient: int, masks: tuple[int, ...]) -> Ideal:
    return Ideal.from_masks(ambient, minimal_transversals(masks))


def alexander_dual(I: Ideal) -> Ideal:
    """Ideal generated by the minimal transversals of the generator supports.

    The last dual built is kept, so a repeat request for the same ideal
    returns the same (immutable) object.
    """
    _check_ideal(I)
    if I.is_zero:
        raise InputError("the zero ideal has no Alexander dual here")
    return _dual_of(I.ambient, I.gen_masks)


def stanley_reisner(I: Ideal) -> SimplicialComplex:
    """Complex whose faces are the squarefree monomials not lying in I.

    Facets are complements of the Alexander dual's generators (the minimal
    transversals of the generator supports), so no face enumeration is
    needed.  The zero ideal gives the full simplex.
    """
    _check_ideal(I)
    full = (1 << I.ambient) - 1
    if I.is_zero:
        return SimplicialComplex(I.ambient, (full,))
    return SimplicialComplex(I.ambient, tuple(full ^ t for t in alexander_dual(I).gen_masks))


def restrict_complex(C: SimplicialComplex, sigma) -> SimplicialComplex:
    """Subcomplex of faces contained in the vertex subset sigma: an int mask
    inside the ambient, or an iterable of 1-based vertex indices."""
    smask = _subset_mask(C.ambient, sigma)
    if C.is_void:
        return C
    return SimplicialComplex(C.ambient, tuple(f & smask for f in C.facets))


# translate tables: _SET_BIT[k] maps each byte v to v | 2^k
_SET_BIT = [bytes([v | 1 << k for v in range(256)]) for k in range(8)]


@functools.cache
def _extract_row(s: int) -> bytes:
    """Row s of the bit-extract table, built on first use: entry x holds
    the bits of x & s packed, in order, into bits 0..|s|-1."""
    row = b"\0"  # the entries for x < 2^b after b bits
    k = 0
    for b in range(8):
        if s >> b & 1:
            row += row.translate(_SET_BIT[k])
            k += 1
        else:
            row += row
    return row


def _remap(sigma: int, masks) -> tuple[int, tuple[int, ...]]:
    """Relabel the vertices of sigma as bits 0..m-1, keeping their order,
    and return (m, the masks relabelled).  Every mask must lie inside sigma.
    Each byte of a mask is relabelled by one lookup in the row of the
    bit-extract table for the matching byte of sigma.  The relabelling is
    monotone on masks, so masks listed in canonical order come out in
    canonical order."""
    parts = []  # (shift in, table row, shift out) per nonzero byte of sigma
    m = 0
    shift = 0
    rest = sigma
    while rest:
        s = rest & 255
        if s:
            parts.append((shift, _extract_row(s), m))
            m += s.bit_count()
        rest >>= 8
        shift += 8
    local = []
    for g in masks:
        lg = 0
        for shift, row, at in parts:
            lg |= row[g >> shift & 255] << at
        local.append(lg)
    return m, tuple(local)


# --- face bitmaps ------------------------------------------------------------

_PATTERNS: dict[int, list[tuple[int, int]]] = {}
_CACHED_MASK_VERTICES = 16  # m masks of 2^m bits: 128 KiB at m = 16


def _bit_patterns(m: int) -> list[tuple[int, int]]:
    """For each vertex bit b: (indicator of subset-indices with bit b unset, 2^b).
    Cached for m <= _CACHED_MASK_VERTICES only."""
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
        if m <= _CACHED_MASK_VERTICES:
            _PATTERNS[m] = pats
    return pats


def _face_bitmap_from_nonfaces(m: int, nonfaces, patterns) -> int:
    """Bitmap of faces (subset indices) given the minimal non-faces and
    `_bit_patterns(m)`."""
    total = 1 << m
    nf = 0
    for g in nonfaces:
        nf |= 1 << g
    for pat, step in patterns:
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


_AT_MOST: dict[tuple[int, int], int] = {}


def _at_most(m: int, k: int) -> int:
    """Bitmap of the subset indices 0..2^m-1 with at most k bits set.

    Built over the vertex bits from the bottom up.  After b bits, row[i]
    marks the indices below 2^b with at most k - (m - b) + i bits set;
    the indices with bit b set sit 2^b higher and have one bit more.  The
    row shrinks by one entry per bit, so it holds at most 2^m bits, and
    the old and new rows at most 2^(m+1).  Cached for
    m <= _CACHED_MASK_VERTICES only.
    """
    if k < 0:
        return 0
    if k >= m:
        return (1 << (1 << m)) - 1
    key = (m, k)
    mask = _AT_MOST.get(key)
    if mask is None:
        row = [int(j >= 0) for j in range(k - m, k + 1)]
        for b in range(m):
            step = 1 << b
            row = [rest | fewer << step for fewer, rest in zip(row, row[1:])]
        mask = row[0]
        if m <= _CACHED_MASK_VERTICES:
            _AT_MOST[key] = mask
    return mask


def _size_band(m: int, lo: int, hi: int) -> int:
    """Bitmap of the subset indices with lo..hi bits set."""
    return _at_most(m, hi) ^ _at_most(m, lo - 1)


_BYTE_BITS = [tuple(b for b in range(8) if x >> b & 1) for x in range(256)]


def _faces_by_size(m: int, bitmap: int) -> list[list[int]]:
    """Face masks grouped by cardinality 0..m, each group in ascending mask
    order.  The bitmap is read once, a byte at a time, from its lowest
    nonzero byte to its highest: a band of sizes the complex lacks leaves
    an empty bitmap, which costs no loop."""
    groups: list[list[int]] = [[] for _ in range(m + 1)]
    data = bitmap.to_bytes((bitmap.bit_length() + 7) >> 3, "little")
    trimmed = data.lstrip(b"\0")
    for index, byte in enumerate(trimmed, len(data) - len(trimmed)):
        if byte:
            base = index << 3
            for b in _BYTE_BITS[byte]:
                mask = base + b
                groups[mask.bit_count()].append(mask)
    return groups


def _relative_faces(faces: int, patterns) -> int:
    """Bitmap of the basis of C~(faces)/C~(st v): the faces f with v not in
    f and f + v not a face.  The star pairs each face f containing v with
    f - v, so the basis has |faces| - 2 |faces containing v| faces; v is the
    vertex in the most faces (ties to the lowest), and the whole bitmap
    stays when no vertex is a face.  `patterns` is `_bit_patterns(m)`."""
    total = faces.bit_count()
    most, cone = 0, None
    for pat, step in patterns:
        on = total - (faces & pat).bit_count()  # the faces containing v
        if on > most:
            most, cone = on, (pat, step)
    if cone is None:
        return faces
    pat, step = cone
    # index x of faces >> step holds face x + 2^v
    return faces & pat & ~(faces >> step)


def _band_faces(m: int, nonfaces: tuple[int, ...], lo: int, hi: int) -> list[list[int]]:
    """The basis faces of the relative complex (`_relative_faces`) of sizes
    lo..hi grouped by size 0..m; the other groups are empty."""
    if m > MAX_VERTICES:
        raise CapacityError(f"{m} vertices exceeds homology engine limit {MAX_VERTICES}")
    patterns = _bit_patterns(m)  # built once: not cached above _CACHED_MASK_VERTICES
    faces = _relative_faces(_face_bitmap_from_nonfaces(m, nonfaces, patterns), patterns)
    return _faces_by_size(m, faces & _size_band(m, lo, hi))


def _boundary_columns_f2(small: list[int], big: list[int]) -> list[int]:
    """Boundary matrix over GF(2) as column bitmasks (bit = row index).
    A facet of a face that is not in `small` lies in the star and is
    dropped."""
    index = {f: i for i, f in enumerate(small)}
    cols = []
    for face in big:
        col = 0
        rem = face
        while rem:
            low = rem & -rem
            rem ^= low
            i = index.get(face ^ low)
            if i is not None:
                col |= 1 << i
        cols.append(col)
    return cols


def _boundary_rows_signed(small: list[int], big: list[int]) -> list[dict[int, int]]:
    """Signed boundary matrix as sparse columns, one {row index: +-1} map
    per face of `big` (rows index `small`).

    Vertices of each face are taken ascending; removing the t-th smallest
    contributes sign (-1)^t.  A facet that is not in `small` lies in the
    star and is dropped; the sign still alternates over it.
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
            i = index.get(face ^ low)
            if i is not None:
                col[i] = sign
            sign = -sign
        cols.append(col)
    return cols


# --- homology profiles -------------------------------------------------------
#
# A profile is a tuple h of length m+1 with h[s] = dim H~_{s-1}, s = 0..m:
# size-s faces carry H~_{s-1}.  Conventions: void complex -> all zeros;
# irrelevant complex -> h[0] = 1.
#
# The face data of a complex over GF(p) are cached per (m, non-faces, p) as
# (counts, ranks, h) of the relative complex: counts[s] is the number of
# size-s basis faces (s = 0..m), ranks[s] the rank of the boundary map from
# size-s to size-(s-1) chains (s = 0..m+1) and h[s] = counts[s] - ranks[s]
# - ranks[s+1].  A request
# names the maps lo..hi it needs; the faces of sizes lo-1..hi are listed
# and counted, and only the ranks still missing are reduced, so the entry
# of a banded request is a partial profile: a count, rank or dimension not
# computed yet is None.  A rank is known only with the counts of both its
# sizes, and a full profile is only built from an entry whose every rank
# is known.  `_F2_DATA` keeps the name it had when it held GF(2) data only.

_F2_DATA: dict[tuple[int, tuple[int, ...], int], tuple[tuple, tuple, tuple]] = {}
_PROFILES: dict[tuple[int, tuple[int, ...], int | None], tuple[int, ...]] = {}
_QRANKS: dict[tuple[int, tuple[int, ...], int], int] = {}


def _check_rank(r: int, rows: int, cols: int, s: int) -> int:
    if r > min(rows, cols):
        raise InternalCheckError(f"rank {r} of the size-{s} boundary map exceeds its "
                                 f"{rows} x {cols} shape")
    return r


def _boundary_ranks(m: int, nonfaces: tuple[int, ...], p: int, lo: int, hi: int):
    """The cached (counts, ranks, h) of the complex over GF(p), with the
    ranks of the boundary maps lo..hi known.

    The faces of sizes lo-1..hi are listed and the missing maps reduced
    from the top down with clearing.  Every new rank is checked against its
    matrix shape and every new dimension for h >= 0, also under -O.
    """
    key = (m, nonfaces, p)
    entry = _F2_DATA.get(key)
    if entry is not None and None not in entry[1][lo:hi + 1]:
        return entry
    if entry is None:
        counts, ranks, h = [None] * (m + 1), [0] + [None] * m + [0], [None] * (m + 1)
    else:
        counts, ranks, h = (list(v) for v in entry)
    sizes = range(max(lo - 1, 0), min(hi, m) + 1)
    groups = _band_faces(m, nonfaces, sizes[0], sizes[-1])
    for s in sizes:
        counts[s] = len(groups[s])
    pivots = ()
    for s in range(min(hi, m), max(lo, 1) - 1, -1):
        if ranks[s] is not None:
            pivots = ()
            continue
        big = groups[s]
        if pivots:
            big = [f for i, f in enumerate(big) if i not in pivots]
        if p == 2:
            pivots = rank_f2_columns(_boundary_columns_f2(groups[s - 1], big))
        else:
            pivots = rank_mod_p(_boundary_rows_signed(groups[s - 1], big), p)
        ranks[s] = _check_rank(len(pivots), counts[s - 1], counts[s], s)
    for s in sizes:
        if h[s] is None and ranks[s] is not None and ranks[s + 1] is not None:
            h[s] = counts[s] - ranks[s] - ranks[s + 1]
            if h[s] < 0:
                raise InternalCheckError(f"negative homology dimension {h[s]} at q={s - 1}")
    entry = _F2_DATA[key] = (tuple(counts), tuple(ranks), tuple(h))
    return entry


def _exact_rank_q(m: int, nonfaces: tuple[int, ...], s: int) -> int:
    """Exact rank over Q of the boundary map from size-s to size-(s-1) chains."""
    key = (m, nonfaces, s)
    r = _QRANKS.get(key)
    if r is None:
        if s < 1 or s > m:
            r = 0
        else:
            counts, f2_ranks, _ = _boundary_ranks(m, nonfaces, 2, s, s)
            if f2_ranks[s] == min(counts[s - 1], counts[s]):
                # GF(2) rank is a lower bound for the rational rank
                r = f2_ranks[s]
            else:
                groups = _band_faces(m, nonfaces, s - 1, s)
                r = _check_rank(len(rank_bareiss(_boundary_rows_signed(groups[s - 1], groups[s]))),
                                counts[s - 1], counts[s], s)
        _QRANKS[key] = r
    return r


def exact_rational_hq(m: int, nonfaces: tuple[int, ...], q: int) -> int:
    """dim H~_q over Q for one dimension, with the GF(2) zero certificate."""
    s = q + 1
    if s < 0 or s > m:
        return 0
    counts, _, h2 = _boundary_ranks(m, nonfaces, 2, s, s + 1)
    if h2[s] == 0:
        return 0
    h = counts[s] - _exact_rank_q(m, nonfaces, s) - _exact_rank_q(m, nonfaces, s + 1)
    if h < 0:
        raise InternalCheckError(f"negative homology dimension {h} at q={q}")
    return h


def homology_profile(m: int, nonfaces: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dimensions of the complex with the given minimal
    non-faces on m local vertices; tuple index q+1 holds dim H~_q.  The
    full profile is the band of every map, checked against the Euler
    characteristic of the face counts."""
    key = (m, nonfaces, field.p)
    prof = _PROFILES.get(key)
    if prof is not None:
        return prof
    counts, _, h = _boundary_ranks(m, nonfaces, field.p or 2, 0, m + 1)
    if field.p is None:
        h = [exact_rational_hq(m, nonfaces, q) for q in range(-1, m)]
    euler_faces = sum(c if s % 2 else -c for s, c in enumerate(counts))
    euler_hom = sum(v if s % 2 else -v for s, v in enumerate(h))
    if euler_faces != euler_hom:
        raise InternalCheckError(
            f"Euler characteristic mismatch: faces {euler_faces}, homology {euler_hom}")
    prof = _PROFILES[key] = tuple(h)
    return prof


def clear_caches() -> None:
    """Drop memoized homology data and the last Alexander dual built
    (mainly for long-running processes).  The size masks, bit patterns and
    bit-extract rows stay: they depend on m or on one byte alone.  The
    masks and patterns are cached for m <= _CACHED_MASK_VERTICES only, at
    most about 240 KiB each, and the rows take at most 64 KiB."""
    _F2_DATA.clear()
    _PROFILES.clear()
    _QRANKS.clear()
    _dual_of.cache_clear()


def reduced_homology_dims(C: SimplicialComplex, field: FieldSpec = RATIONALS) -> dict[int, int]:
    """Exact reduced homology dimensions, as {dimension p: dim H~_p}.

    Entries run from p = -1 up to dim(C); the void complex gives {} (all
    homology zero).  Independent of facet input order.
    """
    _check_field(field)
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
    return {q: prof[q + 1] for q in range(-1, C.dim + 1)}
