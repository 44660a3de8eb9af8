"""The numeric bound functions, verdict reports for the regularity bound
and its dual (S2 / cohomological dimension) form, and the odd-degree sharp
example generator.

The two bound functions, for generator degree d >= 2:

    f(n, d) = 0 if n < d;  d if n = d;  floor((d-1) n / (d+1)) + 1 if n > d
    g(n, d) = n - floor(n / (d+1)) - floor((n-1) / (d+1))

f is the bound a linearly presented pure degree-d ideal's regularity obeys
(in the form reg <= max(d, f(n, d))); g is the comparison bound coming
from the cohomological-dimension question that f sharpens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import regularity
from .complexes import RATIONALS, FieldSpec
from .core import (
    Ideal,
    InputError,
    InternalCheckError,
    PreconditionError,
    _check_ideal,
    _check_int,
    report_json,
    truncation,
)
from .duality import cohomological_dimension, height_profile, is_S2
from .linearity import n2_verdict_masks


def _f(n: int, d: int) -> int:
    if n < d:
        return 0
    if n == d:
        return d
    return (d - 1) * n // (d + 1) + 1


def _g(n: int, d: int) -> int:
    return n - n // (d + 1) - (n - 1) // (d + 1)


def f_bound(n: int, d: int) -> int:
    """Piecewise regularity bound f(n, d); requires d >= 2, n >= 0."""
    _check_int("d", d, 2)
    _check_int("n", n, 0)
    return _f(n, d)


def g_bound(n: int, d: int) -> int:
    """Comparison bound g(n, d); requires d >= 2, n >= 1."""
    _check_int("d", d, 2)
    _check_int("n", n, 1)
    return _g(n, d)


def faltings_bound(n: int, bigheight: int) -> int:
    """n - floor((n-1) / (bigheight + 1))."""
    _check_int("n", n, 1)
    _check_int("bigheight", bigheight, 1)
    return n - (n - 1) // (bigheight + 1)


def theorem_bound(n: int, d: int) -> int:
    """max(d, f(n, d)); at d = 1 this is 1, as f(n, 1) <= 1."""
    _check_int("d", d, 1)
    _check_int("n", n, 0)
    return max(d, _f(n, d))


@dataclass(frozen=True)
class BoundReport:
    """Verdict record tying a computed invariant to the bound functions.

    `kind` is "regularity" (reg of a linearly presented ideal against
    max(d, f(n, d))) or "cohomological" (cd of an S2 ideal of height d
    against the same expression).  `n` is the value the bound was
    evaluated at; both the ambient count and the support count are
    recorded, and `f_support` gives the (sharper) support-count bound for
    comparison.
    """

    kind: str
    n: int
    n_ambient: int
    n_support: int
    d: int
    reg: int
    f_value: int
    g_value: int
    bound: int
    theorem_holds: bool
    tight: bool
    faltings_value: int
    f_support: int

    def to_json(self) -> str:
        return report_json(self)


def _report(kind: str, I: Ideal, d: int, value: int, use_support: bool) -> BoundReport:
    """`value` against max(d, f(n, d)), with n the ambient or the support
    variable count of I."""
    n_ambient = I.ambient
    n_support = I.supp_mask.bit_count()
    n = n_support if use_support else n_ambient
    bound = theorem_bound(n, d)
    return BoundReport(
        kind=kind,
        n=n,
        n_ambient=n_ambient,
        n_support=n_support,
        d=d,
        reg=value,
        f_value=_f(n, d),
        g_value=_g(n, d),
        bound=bound,
        theorem_holds=value <= bound,
        tight=value == bound,
        faltings_value=faltings_bound(n_ambient, height_profile(I).bigheight),
        f_support=_f(n_support, d),
    )


def check_theorem1(I: Ideal, field: FieldSpec = RATIONALS, use_support: bool = False) -> BoundReport:
    """Regularity-bound report for a linearly presented pure-degree ideal.

    Refuses input that is not linearly presented rather than reporting
    vacuously.  The bound is evaluated at the ambient variable count by
    default; use_support=True restricts to the support count (valid by
    restriction, and sharper).  Both appear in the report either way.
    """
    _check_ideal(I)
    if I.is_zero:
        raise InputError("zero ideal")
    d = I.pure_degree()
    if d is None:
        raise PreconditionError("generators have mixed degrees")
    ok, witness = n2_verdict_masks(I.gen_masks, d)
    if not ok:
        raise PreconditionError(
            f"ideal is not linearly presented (disconnected pair at indices {witness})"
        )
    return _report("regularity", I, d, regularity(I, field), use_support)


def check_corollary1(I: Ideal, field: FieldSpec = RATIONALS, use_support: bool = False) -> BoundReport:
    """Cohomological-dimension report for an ideal whose quotient is S2.

    The invariant is cd(S, I) (= pd of the quotient = reg of the dual),
    bounded by max(c, f(n, c)) with c the height; g(n, c) is included for
    the comparison with the weaker floor-pair bound.
    """
    _check_ideal(I)
    if I.is_zero:
        raise InputError("zero ideal")
    ok, c = is_S2(I)
    if not ok:
        raise PreconditionError("quotient does not satisfy S2")
    return _report("cohomological", I, c, cohomological_dimension(I, field), use_support)


def sharp_example(n: int, d: int, verify: bool = True) -> Ideal:
    """A linearly presented pure degree-d ideal with regularity exactly
    f(n, d), for odd d >= 3 and any n >= d.

    Construction: write n = (k+1) t + s with d = 2k+1, 0 <= s <= k and
    t >= 2 (n = d returns the single full-support monomial).  Take the
    complete intersection of t consecutive-variable monomials of degree
    k+1, plus one monomial of degree s when 2 <= s <= k, and truncate to
    degree d.  The stated properties are re-verified before returning.
    """
    _check_int("d", d, 3)
    if d % 2 == 0:
        raise InputError(f"sharp_example requires odd d >= 3, got {d}")
    _check_int("n", n, d)
    if n == d:
        ideal = Ideal.from_masks(n, [(1 << d) - 1])
    else:
        k = (d - 1) // 2
        t, s = divmod(n, k + 1)
        block = (1 << (k + 1)) - 1
        masks = [block << (j * (k + 1)) for j in range(t)]
        if s >= 2:
            masks.append(((1 << s) - 1) << (t * (k + 1)))
        ideal = truncation(Ideal.from_masks(n, masks), d)
    if verify:
        ok, _ = n2_verdict_masks(ideal.gen_masks, d)
        expected = _f(n, d)
        reg = regularity(ideal, RATIONALS)
        if not ok or reg != expected:
            raise InternalCheckError(
                f"sharp example postcondition failed at n={n}, d={d}: "
                f"linear presentation={ok}, reg={reg}, expected {expected}"
            )
    return ideal
