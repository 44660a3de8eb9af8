"""Alexander duality, height profiles, the S2 test, and cohomological
dimension, with the subset-scan hitting-set oracle as the second route."""

import itertools
import random

import pytest
from oracles import oracle_dual, random_gens, random_mask

from monomial_lab.betti import projective_dimension, regularity
from monomial_lab.bounds import faltings_bound, sharp_example
from monomial_lab.complexes import GF2, RATIONALS
from monomial_lab.core import Ideal, InputError, Monomial, minimal_generators, truncation
from monomial_lab.duality import (
    alexander_dual,
    cohomological_dimension,
    height_profile,
    is_S2,
)
from monomial_lab.harness import degree_monomial_masks, remark_example
from monomial_lab.transversals import minimal_transversals


def ideal(n, *var_tuples):
    return minimal_generators([Monomial.of(n, *vs) for vs in var_tuples], ambient=n)


class TestTransversals:
    def test_empty_family(self):
        assert minimal_transversals([]) == (0,)

    def test_against_subset_scan(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 7)
            gens = random_gens(rng, n, rng.randint(1, 6))
            if not gens:
                continue
            assert minimal_transversals(gens) == oracle_dual(gens, n)

    def test_families_that_are_not_antichains(self):
        """Duplicate, nested and singleton sets in any order, up to n = 10:
        the output is the subset scan's, a duplicate-free antichain."""
        rng = random.Random(7)
        for trial in range(300):
            n = rng.randint(1, 10)
            family = [random_mask(rng, n, rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 6)):
                base = rng.choice(family)
                kind = rng.randrange(4)
                if kind == 0:  # duplicate
                    family.append(base)
                elif kind == 1:  # superset
                    family.append(base | random_mask(rng, n, rng.randint(0, n)))
                elif kind == 2:  # base less its lowest element, if that leaves any
                    family.append(base & (base - 1) or base)
                else:  # singleton
                    family.append(random_mask(rng, n, 1))
            rng.shuffle(family)
            got = minimal_transversals(family)
            assert got == oracle_dual(family, n), (trial, family)
            assert len(set(got)) == len(got)
            assert not any(a != b and a & ~b == 0 for a in got for b in got)

    def test_edge_families(self):
        assert minimal_transversals([0b101, 0b101, 0b101]) == (0b001, 0b100)
        assert minimal_transversals([0b1, 0b11, 0b111]) == (0b1,)
        assert minimal_transversals([0b111, 0b11, 0b1]) == (0b1,)
        assert minimal_transversals([0b1, 0b10, 0b100]) == (0b111,)
        full = (1 << 10) - 1
        assert minimal_transversals([full]) == tuple(1 << i for i in range(10))

    def test_empty_set_raises(self):
        for family in ([0], [0b11, 0], [0b1, 0b1, 0, 0b10], [0b111, 0b1, 0]):
            with pytest.raises(ValueError):
                minimal_transversals(family)


class TestAlexanderDual:
    def test_principal(self):
        assert alexander_dual(ideal(3, (1, 2, 3))) == ideal(3, (1,), (2,), (3,))

    def test_triangle_self_dual(self):
        tri = ideal(3, (1, 2), (2, 3), (1, 3))
        assert alexander_dual(tri) == tri

    def test_path(self):
        got = alexander_dual(ideal(4, (1, 2), (2, 3), (3, 4)))
        assert got == ideal(4, (1, 3), (2, 3), (2, 4))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            alexander_dual(Ideal(3))

    def test_involution_exhaustive_small(self):
        # all pure-degree ideals with n <= 4, plus their (mixed-degree) duals
        for n in range(1, 5):
            for d in range(1, n + 1):
                pool = degree_monomial_masks(n, d)
                for subset in range(1, 1 << len(pool)):
                    gens = tuple(pool[i] for i in range(len(pool)) if subset >> i & 1)
                    I = Ideal.from_masks(n, gens)
                    D = alexander_dual(I)
                    assert alexander_dual(D) == I

    def test_involution_random(self):
        rng = random.Random(42)
        done = 0
        while done < 120:
            n = rng.randint(2, 8)
            gens = random_gens(rng, n, rng.randint(1, 7))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            assert alexander_dual(alexander_dual(I)) == I
            done += 1


class TestHeightProfile:
    def test_examples(self):
        r = height_profile(ideal(4, (1, 2), (2, 3), (3, 4)))
        assert (r.height, r.bigheight, r.pure) == (2, 2, True)
        r = height_profile(ideal(3, (1,), (2, 3)))
        assert r.dual == ideal(3, (1, 2), (1, 3))
        assert (r.height, r.bigheight) == (2, 2)
        r = height_profile(ideal(3, (1, 2, 3)))
        assert (r.height, r.bigheight, r.pure) == (1, 1, True)

    def test_degree_swap(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(2, 7)
            gens = random_gens(rng, n, rng.randint(1, 6))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            r = height_profile(I)
            back = height_profile(r.dual)
            assert back.height == min(g.bit_count() for g in gens)
            assert back.bigheight == max(g.bit_count() for g in gens)

    def test_json(self):
        r = height_profile(ideal(3, (1, 2, 3)))
        assert '"height": 1' in r.to_json()


class TestIsS2:
    def test_variables_complete_intersection(self):
        for c in (1, 2, 3):
            I = minimal_generators([Monomial.of(4, k) for k in range(1, c + 1)], ambient=4)
            ok, height = is_S2(I)
            assert ok and height == c

    def test_two_disjoint_edges_complex_fails(self):
        # Stanley-Reisner ideal of two disjoint edges: facets {1,2}, {3,4}
        I = ideal(4, (1, 3), (1, 4), (2, 3), (2, 4))
        ok, _ = is_S2(I)
        assert not ok

    def test_dual_of_disjoint_pair_fails(self):
        # dual of (x1x2, x3x4) is the 4-cycle edge ideal; its own dual is the
        # disconnected pair again, so the linear-presentation leg fails
        D = alexander_dual(ideal(4, (1, 2), (3, 4)))
        assert D == ideal(4, (1, 3), (1, 4), (2, 3), (2, 4))
        ok, c = is_S2(D)
        assert not ok and c == 2

    def test_simplex_skeletons_are_s2(self):
        # skeleton complexes are Cohen-Macaulay; their ideals must pass
        for n in (3, 4, 5):
            for d in range(2, n + 1):
                I = Ideal.from_masks(n, degree_monomial_masks(n, d))
                ok, c = is_S2(I)
                assert ok, (n, d)

    def test_hypersurface(self):
        ok, c = is_S2(ideal(3, (1, 2, 3)))
        assert ok and c == 1


class TestCohomologicalDimension:
    def test_koszul(self):
        for c in (1, 2, 3):
            I = minimal_generators([Monomial.of(4, k) for k in range(1, c + 1)], ambient=4)
            assert cohomological_dimension(I) == c

    def test_principal(self):
        assert cohomological_dimension(ideal(3, (1, 2, 3))) == 1

    def test_remark_dual(self):
        I, _, _ = remark_example()
        assert cohomological_dimension(alexander_dual(I)) == 4

    def test_terai_identity_on_randoms(self):
        rng = random.Random(44)
        done = 0
        while done < 60:
            n = rng.randint(2, 7)
            gens = random_gens(rng, n, rng.randint(1, 6))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            # cohomological_dimension raises InternalCheckError on any mismatch
            cd = cohomological_dimension(I)
            assert cd == projective_dimension(I) == regularity(alexander_dual(I))
            done += 1

    def test_faltings_comparison(self):
        rng = random.Random(45)
        done = 0
        while done < 60:
            n = rng.randint(2, 7)
            gens = random_gens(rng, n, rng.randint(1, 6))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            cd = cohomological_dimension(I)
            assert cd <= faltings_bound(n, height_profile(I).bigheight)
            done += 1

    def test_characteristic_dependence_runs(self):
        I, _, _ = remark_example()
        assert cohomological_dimension(I, GF2) == projective_dimension(I, GF2)
