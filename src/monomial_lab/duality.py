"""Alexander duality and the invariants routed through it: height, big
height, the Serre S2 test, and cohomological dimension.

The dual of a squarefree ideal is generated by the minimal transversals of
the generator supports.  S2 is decided by the dual-side criterion (pure
dual generated in the height degree, linearly presented); cohomological
dimension is the regularity of the dual, cross-checked against the
projective dimension of the quotient on every call.

The dual is computed once per query: `alexander_dual` lives in
`complexes`, beside `stanley_reisner`, which reads its facets off the
same dual, and keeps the last dual built, which `complexes.clear_caches`
drops.  So `is_S2`, `cohomological_dimension` and the bound reports,
which each ask for the height profile or the dual of the same ideal,
share one dual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import projective_dimension, regularity
from .complexes import RATIONALS, FieldSpec, alexander_dual
from .core import Ideal, InternalCheckError, report_json
from .linearity import n2_verdict_masks


@dataclass(frozen=True)
class DualReport:
    dual: Ideal
    height: int
    bigheight: int
    pure: bool

    def to_json(self) -> str:
        return report_json(self)


def height_profile(I: Ideal) -> DualReport:
    """Height and big height of I, read off the dual's generator degrees."""
    dual = alexander_dual(I)
    degs = [g.degree for g in dual.gens]
    return DualReport(dual, min(degs), max(degs), min(degs) == max(degs))


def is_S2(I: Ideal) -> tuple[bool, int]:
    """Serre S2 test: the dual must be pure of the height degree and
    linearly presented.  The verdict is characteristic-free (the
    connectivity criterion does not involve the field), so it takes no
    field."""
    report = height_profile(I)
    if not report.pure:
        return False, report.height
    ok, _ = n2_verdict_masks(report.dual.gen_masks, report.height)
    return ok, report.height


def cohomological_dimension(I: Ideal, field: FieldSpec = RATIONALS) -> int:
    """Regularity of the Alexander dual, which for squarefree monomial
    ideals equals the projective dimension of the quotient; both sides are
    computed and compared as a built-in consistency check."""
    dual = alexander_dual(I)
    via_dual = regularity(dual, field)
    via_pd = projective_dimension(I, field)
    if via_dual != via_pd:
        raise InternalCheckError(
            f"duality identity failed: reg(dual)={via_dual} but pd(S/I)={via_pd} for I={I}"
        )
    return via_dual
