"""Squarefree monomial and ideal arithmetic on fixed-width bitsets.

Variable indices are 1-based at the API surface and 0-based bits internally
(x1 is the lowest bit).  The canonical order on monomials is (degree, bitmask
ascending); ideals keep their minimal generators sorted in that order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

MAX_AMBIENT = 64


class InputError(ValueError):
    """Invalid input: ambient mismatch, out-of-range index, unit ideal, ..."""


class PreconditionError(InputError):
    """An operation's stated hypotheses do not hold for the given input."""


class CapacityError(InputError):
    """Input exceeds the supported desk-scale limits."""


class InternalCheckError(RuntimeError):
    """A built-in consistency check failed; indicates a bug."""


class TheoremViolationError(InternalCheckError):
    """A verified statement failed on input satisfying its hypotheses."""


class _UnitIdealType:
    """Singleton marker for operations whose result would contain 1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNIT_IDEAL"


UNIT_IDEAL = _UnitIdealType()


def _is_int(value) -> bool:
    """An int that is not a bool: the int test of every input check."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value, least: int) -> None:
    """`value` is an int (`_is_int`) of at least `least`."""
    if not _is_int(value):
        raise InputError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")


def _vars_to_mask(ambient: int, variables) -> int:
    mask = 0
    for v in variables:
        if not _is_int(v) or not 1 <= v <= ambient:
            raise InputError(f"variable index {v!r} outside 1..{ambient}")
        mask |= 1 << (v - 1)
    return mask


def mask_to_vars(mask: int) -> tuple[int, ...]:
    """Bit positions of `mask` as ascending 1-based variable indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _check_ambient(ambient: int) -> None:
    if not _is_int(ambient) or ambient < 1:
        raise InputError(f"ambient must be a positive integer, got {ambient!r}")
    if ambient > MAX_AMBIENT:
        raise CapacityError(f"ambient {ambient} exceeds supported maximum {MAX_AMBIENT}")


@dataclass(frozen=True)
class Monomial:
    """A squarefree monomial: a set of variable indices inside 1..ambient."""

    ambient: int
    mask: int = 0

    def __post_init__(self):
        _check_ambient(self.ambient)
        if not _is_int(self.mask) or self.mask < 0 or self.mask >> self.ambient:
            raise InputError(f"mask {self.mask!r} outside ambient {self.ambient}")

    @classmethod
    def of(cls, ambient: int, *variables: int) -> "Monomial":
        """Monomial from 1-based variable indices, e.g. Monomial.of(4, 1, 3)."""
        _check_ambient(ambient)
        return cls(ambient, _vars_to_mask(ambient, variables))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def vars(self) -> tuple[int, ...]:
        return mask_to_vars(self.mask)

    @property
    def is_one(self) -> bool:
        return self.mask == 0

    def __str__(self):
        if self.mask == 0:
            return "1"
        return "*".join(f"x{v}" for v in self.vars)

    def __repr__(self):
        return f"Monomial({self.ambient}, {self})"


def _same_ambient(u, v) -> None:
    """`u` and `v` (monomials, ideals, ...) have the same ambient."""
    if u.ambient != v.ambient:
        raise InputError(f"ambient mismatch: {u.ambient} vs {v.ambient}")


def lcm(u: Monomial, v: Monomial) -> Monomial:
    """Least common multiple: union of supports."""
    _same_ambient(u, v)
    return Monomial(u.ambient, u.mask | v.mask)


def gcd(u: Monomial, v: Monomial) -> Monomial:
    """Greatest common divisor: intersection of supports (may be 1)."""
    _same_ambient(u, v)
    return Monomial(u.ambient, u.mask & v.mask)


def divides(u: Monomial, v: Monomial) -> bool:
    _same_ambient(u, v)
    return u.mask & ~v.mask == 0


def canon_key(mask: int) -> tuple[int, int]:
    """Canonical sort key: degree first, then the bitmask as an integer."""
    return (mask.bit_count(), mask)


def minimalize_masks(masks) -> tuple[int, ...]:
    """Antichain of divisibility-minimal masks, deduplicated, canonically sorted.

    A mask inside another one has the smaller degree, so a family of one
    degree is returned once deduplicated.  Otherwise, in canonical order, a
    mask is kept when no kept mask lies inside it; the kept masks below the
    top degree are indexed as they are found (`MaskIndex.add`).
    """
    uniq = sorted(set(masks), key=canon_key)
    if not uniq:
        return ()
    top = uniq[-1].bit_count()
    if uniq[0].bit_count() == top:
        return tuple(uniq)
    index = MaskIndex()
    out = []
    for m in uniq:
        if not index.inside(m):
            out.append(m)
            if m.bit_count() < top:
                index.add(m)
    return tuple(out)


class MaskIndex:
    """Answers "which masks of a list lie inside the set b?" with a few ORs.

    For each vertex v of the masks' union, `by_vertex[1 << v]` is the bitset
    G_v of the positions of the masks that contain v.  A mask lies inside b
    exactly when it contains no vertex of the union outside b, so the masks
    inside b are every position but the OR of G_v over those vertices: one
    OR per vertex outside b, instead of one subset test per mask.

    Its users are the saturated-subset walk (`betti`), the N_2 subgraphs
    (`linearity`) and `minimalize_masks`, the one antichain filter: the
    `Ideal` check, `minimal_generators`, the ideal operations and the
    maximal facets of a `SimplicialComplex` all go through it.
    """

    __slots__ = ("by_vertex", "union", "every")

    def __init__(self, masks=()):
        self.by_vertex: dict[int, int] = {}
        self.union = 0
        self.every = 0
        for g in masks:
            self.add(g)

    def add(self, mask: int) -> None:
        """Index `mask` at the next position."""
        bit = self.every + 1
        self.every |= bit
        self.union |= mask
        by_vertex = self.by_vertex
        while mask:
            low = mask & -mask
            mask ^= low
            by_vertex[low] = by_vertex.get(low, 0) | bit

    def inside(self, b: int) -> int:
        """Bitset of the positions of the masks that lie inside b."""
        by_vertex = self.by_vertex
        excluded = 0
        rem = self.union & ~b
        while rem:
            low = rem & -rem
            rem ^= low
            excluded |= by_vertex[low]
        return self.every & ~excluded


@dataclass(frozen=True)
class Ideal:
    """A squarefree monomial ideal given by its minimal generating set.

    The constructor requires generators that already form an antichain (no
    generator divides another, no duplicates) and sorts them canonically;
    use `minimal_generators` to canonicalize an arbitrary list.  The zero
    ideal has an empty generator tuple.  The unit ideal is not representable.
    """

    ambient: int
    gens: tuple[Monomial, ...] = ()

    def __post_init__(self):
        _check_ambient(self.ambient)
        gens = tuple(self.gens)
        for g in gens:
            if not isinstance(g, Monomial):
                raise InputError(f"generator {g!r} is not a Monomial")
            if g.ambient != self.ambient:
                raise InputError(f"generator ambient {g.ambient} != ideal ambient {self.ambient}")
            if g.mask == 0:
                raise InputError("1 is not a valid generator (unit ideal is not representable)")
        by_mask = {g.mask: g for g in gens}
        if len(by_mask) != len(gens):
            raise InputError("duplicate generators; use minimal_generators to canonicalize")
        masks = minimalize_masks(by_mask)
        if len(masks) != len(by_mask):
            raise InputError("generators are not an antichain; use minimal_generators")
        object.__setattr__(self, "gens", tuple(by_mask[m] for m in masks))

    @classmethod
    def from_masks(cls, ambient: int, masks) -> "Ideal":
        return cls(ambient, tuple(Monomial(ambient, m) for m in masks))

    @property
    def gen_masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.gens)

    @property
    def supp_mask(self) -> int:
        m = 0
        for g in self.gens:
            m |= g.mask
        return m

    @property
    def supp(self) -> tuple[int, ...]:
        return mask_to_vars(self.supp_mask)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def pure_degree(self) -> int | None:
        """The common generator degree, or None if mixed or zero."""
        degs = {g.degree for g in self.gens}
        if len(degs) == 1:
            return degs.pop()
        return None

    def contains_mask(self, mask: int) -> bool:
        return any(g.mask & ~mask == 0 for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        """Membership: some generator divides m."""
        _same_ambient(m, self)
        return self.contains_mask(m.mask)

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self):
        return f"Ideal({self.ambient}, {self})"


def _check_ideal(I) -> None:
    """`I` is an Ideal: the ideal check of every public entry point."""
    if not isinstance(I, Ideal):
        raise InputError(f"ideal must be an Ideal, got {I!r}")


def minimal_generators(monomials, ambient: int | None = None) -> Ideal:
    """Canonicalize an arbitrary generator list into a minimal generating set."""
    monomials = list(monomials)
    if ambient is None:
        if not monomials:
            raise InputError("cannot infer ambient from an empty generator list")
        ambient = monomials[0].ambient
    for m in monomials:
        if m.ambient != ambient:
            raise InputError(f"ambient mismatch: {m.ambient} vs {ambient}")
        if m.mask == 0:
            raise InputError("generator list contains 1 (unit ideal)")
    return Ideal.from_masks(ambient, minimalize_masks(m.mask for m in monomials))


def _subset_mask(ambient: int, subset) -> int:
    """The mask of a vertex subset of 1..ambient, given as an int mask
    (`_is_int`, so no bool) or as an iterable of 1-based indices."""
    if not _is_int(subset):
        if not hasattr(subset, "__iter__"):
            raise InputError(f"vertex subset {subset!r} is neither a mask nor variable indices")
        subset = _vars_to_mask(ambient, subset)
    if subset >> ambient:  # also every negative mask
        raise InputError(f"restriction set outside ambient 1..{ambient}")
    return subset


def restriction(I: Ideal, U) -> Ideal:
    """Sub-ideal of generators supported inside the variable subset U: an
    int mask inside the ambient, or an iterable of 1-based variable indices."""
    _check_ideal(I)
    umask = _subset_mask(I.ambient, U)
    return Ideal(I.ambient, tuple(g for g in I.gens if g.mask & ~umask == 0))


def localize(I: Ideal, f: Monomial):
    """Monomial localization at f.

    Returns (I_f, Ibar_f): I_f is generated by the monomials of I divisible
    by f (minimal generators are the minimized lcm(g, f)); Ibar_f deletes
    f's variables from each generator of I_f.  When f lies in I the second
    component would contain 1; that case returns UNIT_IDEAL there and
    callers must branch on it.
    """
    _check_ideal(I)
    if f.mask == 0:
        raise InputError("cannot localize at 1")
    _same_ambient(f, I)
    if I.is_zero:
        return Ideal(I.ambient), Ideal(I.ambient)
    lifted = minimalize_masks(g.mask | f.mask for g in I.gens)
    I_f = Ideal.from_masks(I.ambient, lifted)
    if any(g.mask & ~f.mask == 0 for g in I.gens):
        return I_f, UNIT_IDEAL
    stripped = minimalize_masks(m & ~f.mask for m in lifted)
    return I_f, Ideal.from_masks(I.ambient, stripped)


def truncation(I: Ideal, d: int) -> Ideal:
    """Ideal generated by all squarefree degree-d monomials lying in I."""
    _check_ideal(I)
    _check_int("truncation degree", d, 1)
    if d > I.ambient:
        raise InputError(f"truncation degree {d} exceeds ambient {I.ambient}")
    found: set[int] = set()
    for g in I.gens:
        if g.degree <= d:
            found.update(squarefree_multiples(g.mask, I.ambient, d))
    return Ideal.from_masks(I.ambient, found)


def squarefree_multiples(mask: int, n: int, d: int) -> tuple[int, ...]:
    """The degree-d squarefree multiples of `mask` (of degree <= d) on n variables."""
    rest = [i for i in range(n) if not mask >> i & 1]
    out = []
    for extra in itertools.combinations(rest, d - mask.bit_count()):
        m = mask
        for i in extra:
            m |= 1 << i
        out.append(m)
    return tuple(out)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    _check_ideal(I)
    _check_ideal(J)
    _same_ambient(I, J)
    return Ideal.from_masks(I.ambient, minimalize_masks(I.gen_masks + J.gen_masks))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    _check_ideal(I)
    _check_ideal(J)
    _same_ambient(I, J)
    if I.is_zero or J.is_zero:
        return Ideal(I.ambient)
    pair_lcms = [a | b for a in I.gen_masks for b in J.gen_masks]
    return Ideal.from_masks(I.ambient, minimalize_masks(pair_lcms))


def _json_default(obj):
    """An ideal as the list of its generator strings, a monomial as its string."""
    if isinstance(obj, Ideal):
        return [str(g) for g in obj.gens]
    if isinstance(obj, Monomial):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_json(doc) -> str:
    """The one JSON writer of the package: sorted keys, `_json_default` hook."""
    return json.dumps(doc, sort_keys=True, default=_json_default)


def report_json(report, **rendered) -> str:
    """A report dataclass as JSON: its fields but the wall-clock `elapsed`,
    with `rendered` replacing or adding the fields whose JSON shape differs."""
    doc = {**vars(report), **rendered}
    doc.pop("elapsed", None)
    return to_json(doc)


# --- plain-text ideal format -------------------------------------------------
#
# One monomial per line as `x<i>*x<j>*...`, blank lines and `#` comments
# ignored, with a required `ambient <n>` header.  Output is bit-exact
# canonical: generators in canonical order, variables ascending.


def parse_monomial(token: str, ambient: int) -> Monomial:
    token = token.strip()
    variables = []
    for part in token.split("*"):
        part = part.strip()
        digits = part[1:]
        if not (part.startswith("x") and digits.isascii() and digits.isdigit()):
            raise InputError(f"bad variable token {part!r} (expected x<k>)")
        variables.append(int(digits))
    if len(set(variables)) != len(variables):
        raise InputError(f"repeated variable in {token!r} (monomials are squarefree)")
    return Monomial.of(ambient, *variables)


def parse_ideal(text: str) -> Ideal:
    ambient = None
    monomials: list[Monomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ambient is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "ambient":
                raise InputError(f"line {lineno}: expected header 'ambient <n>' first")
            if not (parts[1].isascii() and parts[1].isdigit()):
                raise InputError(f"line {lineno}: bad ambient {parts[1]!r}")
            ambient = int(parts[1])
            _check_ambient(ambient)
            continue
        monomials.append(parse_monomial(line, ambient))
    if ambient is None:
        raise InputError("missing 'ambient <n>' header")
    if not monomials:
        return Ideal(ambient)
    return minimal_generators(monomials, ambient=ambient)


def format_ideal(I: Ideal) -> str:
    _check_ideal(I)
    lines = [f"ambient {I.ambient}"]
    lines.extend(str(g) for g in I.gens)
    return "\n".join(lines) + "\n"
