"""Bound functions, verdict reports, sharp examples, and the regularity
inequalities exercised on random ideals.

Note on the step inequality f(n-j,d) + j - 2 <= f(n,d): it fails on the
boundary n - j = d whenever 2(d+j) > 3(d+1).  test_step_two_boundary below
freezes that exact failure set; the criterion that asserts the inequality
on its full stated range lives in the acceptance suite and is expected to
fail there (see the verification notes in the README).
"""

import random

import pytest
from oracles import random_gens

from monomial_lab.betti import regularity
from monomial_lab.bounds import (
    BoundReport,
    check_corollary1,
    check_theorem1,
    f_bound,
    faltings_bound,
    g_bound,
    sharp_example,
    theorem_bound,
)
from monomial_lab.complexes import RATIONALS
from monomial_lab.core import (
    Ideal,
    InputError,
    Monomial,
    PreconditionError,
    ideal_intersection,
    ideal_sum,
    minimal_generators,
)
from monomial_lab.duality import alexander_dual
from monomial_lab.harness import remark_example
from monomial_lab.linearity import is_N2_graph

D5_TABLE_F = [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11]
D5_TABLE_G = [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11]


def ideal(n, *var_tuples):
    return minimal_generators([Monomial.of(n, *vs) for vs in var_tuples], ambient=n)


class TestBoundFunctions:
    def test_f_golden_values(self):
        assert f_bound(4, 5) == 0
        assert f_bound(10, 5) == 7
        assert f_bound(6, 3) == 4  # floor(2*6/4) + 1

    def test_g_golden_values(self):
        assert g_bound(10, 5) == 8
        assert g_bound(11, 5) == 9
        assert g_bound(6, 2) == 3

    def test_d5_table(self):
        assert [f_bound(n, 5) for n in range(5, 16)] == D5_TABLE_F
        assert [g_bound(n, 5) for n in range(5, 16)] == D5_TABLE_G

    def test_faltings_examples(self):
        assert faltings_bound(8, 1) == 5
        assert faltings_bound(5, 4) == 5
        assert faltings_bound(10, 2) == 7

    def test_domain_errors(self):
        with pytest.raises(InputError):
            f_bound(5, 1)
        with pytest.raises(InputError):
            g_bound(0, 3)
        with pytest.raises(InputError):
            faltings_bound(0, 1)

    def test_theorem_bound(self):
        assert theorem_bound(5, 2) == 2
        assert theorem_bound(3, 3) == 3
        assert theorem_bound(9, 1) == 1


class TestInequalityLemmas:
    def test_sandwich_and_characterization(self):
        for d in range(2, 13):
            for n in range(d + 1, 201):
                f, g = f_bound(n, d), g_bound(n, d)
                assert g - 1 <= f <= g, (n, d)
                s = n % (d + 1)
                expect_low = n >= d + 1 and (d + 1) // 2 < s <= d
                assert (f == g - 1) == expect_low, (n, d)

    def test_step_one(self):
        for d in range(2, 13):
            for n in range(d + 1, 201):
                for j in range(1, (d + 1) // 2 + 1):
                    if n - j > d:
                        assert f_bound(n - j, d) + j - 1 <= f_bound(n, d), (n, d, j)

    def test_step_two_boundary(self):
        """The second step inequality holds except exactly on the n-j = d
        boundary with 2(d+j) > 3(d+1); freeze that characterization."""
        for d in range(2, 13):
            for n in range(d + 1, 201):
                for j in range(1, d + 2):
                    holds = f_bound(max(n - j, 0), d) + j - 2 <= f_bound(n, d)
                    expect_fail = (n - j == d) and 2 * (d + j) > 3 * (d + 1)
                    assert holds == (not expect_fail), (n, d, j)


class TestCheckTheorem1:
    def test_principal(self):
        r = check_theorem1(ideal(3, (1, 2, 3)))
        assert r.reg == 3 and r.bound == 3 and r.theorem_holds and r.tight

    def test_remark_ideal(self):
        I, _, _ = remark_example()
        r = check_theorem1(I)
        assert r.reg == 4 and r.f_value == 5 and r.bound == 5
        assert r.theorem_holds and not r.tight
        assert r.n_ambient == r.n_support == 8

    def test_sharp_is_tight(self):
        r = check_theorem1(sharp_example(6, 3))
        assert r.reg == 4 == r.f_value and r.tight

    def test_pentagon_exceeds_bound(self):
        # documented finding: the 5-cycle edge ideal is linearly presented
        # with regularity 3, above max(2, f(5,2)) = 2
        C5 = ideal(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
        r = check_theorem1(C5)
        assert r.reg == 3 and r.bound == 2
        assert not r.theorem_holds

    def test_rejects_non_linear_presentation(self):
        with pytest.raises(PreconditionError):
            check_theorem1(ideal(4, (1, 2), (3, 4)))

    def test_rejects_mixed_degrees(self):
        with pytest.raises(PreconditionError):
            check_theorem1(ideal(3, (1,), (2, 3)))

    def test_support_flag(self):
        # same ideal embedded in a larger ring: support bound is unchanged
        I = ideal(6, (1, 2, 3))
        amb = check_theorem1(I)
        sup = check_theorem1(I, use_support=True)
        assert amb.n == 6 and sup.n == 3
        assert amb.f_support == sup.f_value
        assert sup.theorem_holds

    def test_json_fields(self):
        r = check_theorem1(ideal(3, (1, 2, 3)))
        for key in ("reg", "f_value", "g_value", "bound", "theorem_holds",
                    "tight", "faltings_value", "n_ambient", "n_support"):
            assert key in r.to_json()


class TestCheckCorollary1:
    def test_koszul(self):
        I = minimal_generators([Monomial.of(5, k) for k in (1, 2, 3)], ambient=5)
        r = check_corollary1(I)
        assert r.reg == 3 and r.d == 3 and r.theorem_holds

    def test_dual_of_sharp_is_tight(self):
        I = alexander_dual(sharp_example(6, 3))
        r = check_corollary1(I)
        assert r.reg == 4 and r.d == 3 and r.bound == 4 and r.tight

    def test_non_s2_rejected(self):
        I = ideal(4, (1, 3), (1, 4), (2, 3), (2, 4))
        with pytest.raises(PreconditionError):
            check_corollary1(I)

    def test_dao_takagi_bound_recorded(self):
        I = minimal_generators([Monomial.of(5, k) for k in (1, 2)], ambient=5)
        r = check_corollary1(I)
        assert r.g_value == g_bound(5, 2)


def _sharp_in_9():
    return Ideal.from_masks(9, sharp_example(6, 3).gen_masks)


REPORT_BYTES = [
    (lambda: check_theorem1(sharp_example(6, 3)),
     '{"bound": 4, "d": 3, "f_support": 4, "f_value": 4, "faltings_value": 5, '
     '"g_value": 4, "kind": "regularity", "n": 6, "n_ambient": 6, "n_support": 6, '
     '"reg": 4, "theorem_holds": true, "tight": true}'),
    (lambda: check_theorem1(ideal(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
     '{"bound": 2, "d": 2, "f_support": 2, "f_value": 2, "faltings_value": 4, '
     '"g_value": 3, "kind": "regularity", "n": 5, "n_ambient": 5, "n_support": 5, '
     '"reg": 3, "theorem_holds": false, "tight": false}'),
    (lambda: check_theorem1(_sharp_in_9()),
     '{"bound": 5, "d": 3, "f_support": 4, "f_value": 5, "faltings_value": 8, '
     '"g_value": 5, "kind": "regularity", "n": 9, "n_ambient": 9, "n_support": 6, '
     '"reg": 4, "theorem_holds": true, "tight": false}'),
    (lambda: check_theorem1(_sharp_in_9(), use_support=True),
     '{"bound": 4, "d": 3, "f_support": 4, "f_value": 4, "faltings_value": 8, '
     '"g_value": 4, "kind": "regularity", "n": 6, "n_ambient": 9, "n_support": 6, '
     '"reg": 4, "theorem_holds": true, "tight": true}'),
    (lambda: check_corollary1(alexander_dual(sharp_example(6, 3))),
     '{"bound": 4, "d": 3, "f_support": 4, "f_value": 4, "faltings_value": 5, '
     '"g_value": 4, "kind": "cohomological", "n": 6, "n_ambient": 6, "n_support": 6, '
     '"reg": 4, "theorem_holds": true, "tight": true}'),
    (lambda: check_corollary1(
        minimal_generators([Monomial.of(5, k) for k in (1, 2, 3)], ambient=5),
        use_support=True),
     '{"bound": 3, "d": 3, "f_support": 3, "f_value": 3, "faltings_value": 4, '
     '"g_value": 3, "kind": "cohomological", "n": 3, "n_ambient": 5, "n_support": 3, '
     '"reg": 3, "theorem_holds": true, "tight": true}'),
    # degree 1: f(n, 1) = g(n, 1) = 1 for n >= 1, and the bound is 1
    (lambda: check_theorem1(ideal(5, (1,), (2,), (4,))),
     '{"bound": 1, "d": 1, "f_support": 1, "f_value": 1, "faltings_value": 4, '
     '"g_value": 1, "kind": "regularity", "n": 5, "n_ambient": 5, "n_support": 3, '
     '"reg": 1, "theorem_holds": true, "tight": true}'),
    (lambda: check_theorem1(ideal(5, (1,), (2,), (4,)), use_support=True),
     '{"bound": 1, "d": 1, "f_support": 1, "f_value": 1, "faltings_value": 4, '
     '"g_value": 1, "kind": "regularity", "n": 3, "n_ambient": 5, "n_support": 3, '
     '"reg": 1, "theorem_holds": true, "tight": true}'),
    # height 1: a principal ideal, S2 with cd 1
    (lambda: check_corollary1(ideal(5, (1, 2, 4))),
     '{"bound": 1, "d": 1, "f_support": 1, "f_value": 1, "faltings_value": 3, '
     '"g_value": 1, "kind": "cohomological", "n": 5, "n_ambient": 5, "n_support": 3, '
     '"reg": 1, "theorem_holds": true, "tight": true}'),
    (lambda: check_corollary1(ideal(5, (1, 2, 4)), use_support=True),
     '{"bound": 1, "d": 1, "f_support": 1, "f_value": 1, "faltings_value": 3, '
     '"g_value": 1, "kind": "cohomological", "n": 3, "n_ambient": 5, "n_support": 3, '
     '"reg": 1, "theorem_holds": true, "tight": true}'),
]


@pytest.mark.parametrize("make, expected", REPORT_BYTES)
def test_report_json_bytes(make, expected):
    """Frozen `BoundReport.to_json` output of both report kinds, ambient
    and support-restricted."""
    assert make().to_json() == expected


class TestSharpExample:
    def test_n_equals_d(self):
        assert sharp_example(3, 3) == ideal(3, (1, 2, 3))

    def test_small_block_structure(self):
        I = sharp_example(6, 3)
        assert len(I.gens) == 12 and I.pure_degree() == 3
        assert is_N2_graph(I)[0]
        assert regularity(I) == 4 == f_bound(6, 3)

    def test_spare_variable_case(self):
        I = sharp_example(7, 3)  # s = 1: same blocks, x7 only via truncation
        assert regularity(I) == 4 == f_bound(7, 3)

    def test_partial_block_case(self):
        I = sharp_example(8, 5)  # k = 2, t = 2, s = 2: extra degree-2 block
        assert regularity(I) == 6 == f_bound(8, 5)

    def test_even_degree_rejected(self):
        with pytest.raises(InputError):
            sharp_example(10, 4)

    def test_n_below_d_rejected(self):
        with pytest.raises(InputError):
            sharp_example(2, 3)


class TestRegularityInequalities:
    def _random_nonzero(self, rng, n):
        while True:
            gens = random_gens(rng, n, rng.randint(1, 5))
            if gens:
                return Ideal.from_masks(n, gens)

    def test_intersection_sum_bounds(self):
        rng = random.Random(51)
        for _ in range(120):
            n = rng.randint(2, 7)
            J = self._random_nonzero(rng, n)
            K = self._random_nonzero(rng, n)
            meet = ideal_intersection(J, K)
            join = ideal_sum(J, K)
            if meet.is_zero:
                continue
            rj, rk = regularity(J), regularity(K)
            rm, rs = regularity(meet), regularity(join)
            assert rm <= max(rj, rk, rs + 1)
            assert rs <= max(rj, rk, rm - 1)

    def test_variable_reduction(self):
        rng = random.Random(52)
        done = 0
        while done < 120:
            n = rng.randint(2, 7)
            I = self._random_nonzero(rng, n)
            g = Monomial(n, rng.randint(1, (1 << n) - 1))
            if I.contains(g):
                continue
            lhs = regularity(ideal_sum(I, Ideal(n, (g,))))
            best = None
            bits = list(g.vars)
            for size in range(1, len(bits) + 1):
                import itertools as it
                for combo in it.combinations(bits, size):
                    vs = minimal_generators(
                        list(I.gens) + [Monomial.of(n, v) for v in combo], ambient=n
                    )
                    val = regularity(vs) + size - 1
                    best = val if best is None else max(best, val)
            assert lhs <= best
            done += 1
