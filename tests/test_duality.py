"""Alexander duality, height profiles, the S2 test, and cohomological
dimension, with the subset-scan hitting-set oracle as the second route."""

import inspect
import itertools
import os
import random
import subprocess
import sys

import pytest
from oracles import (
    CountingMask,
    oracle_berge_scan,
    oracle_dual,
    random_gens,
    random_mask,
    spread,
)

import monomial_lab
from monomial_lab import complexes, duality, transversals
from monomial_lab.betti import projective_dimension, regularity
from monomial_lab.bounds import check_corollary1, check_theorem1, faltings_bound, sharp_example
from monomial_lab.complexes import GF2, RATIONALS
from monomial_lab.core import Ideal, InputError, Monomial, minimal_generators, truncation
from monomial_lab.duality import (
    alexander_dual,
    cohomological_dimension,
    height_profile,
    is_S2,
)
from monomial_lab.harness import degree_monomial_masks, remark_example
from monomial_lab.linearity import n2_verdict_masks
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


class TestTransversalWork:
    def test_against_subset_scan_on_wider_families(self):
        """Families of up to 40 sets on up to 14 vertices, with duplicate and
        nested sets, against the subset scan."""
        rng = random.Random(43)
        for trial in range(60):
            n = rng.randint(6, 14)
            family = [random_mask(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(5, 30))]
            for _ in range(rng.randint(0, 10)):
                base = rng.choice(family)
                family.append(base if rng.random() < 0.5
                              else base | random_mask(rng, n, rng.randint(1, n)))
            rng.shuffle(family)
            got = minimal_transversals(family)
            assert got == oracle_dual(family, n), trial
            assert got == oracle_berge_scan(family), trial

    def test_against_berge_scan_on_wide_families(self):
        """30-40 degree-3 sets on 16-24 vertices, placed among up to 8 more
        positions as the benchmark embeds its ideals: the supports whose
        duals `large-ideal` takes, beyond the reach of the subset scan."""
        rng = random.Random(47)
        for trial in range(8):
            n = rng.randint(16, 24)
            family = [random_mask(rng, n, 3) for _ in range(rng.randint(30, 40))]
            family = spread(family, n, n + rng.randint(0, 8), rng)
            assert minimal_transversals(family) == oracle_berge_scan(family), trial

    def test_both_drop_tests_run(self):
        """A campaign-sized family takes the scan on every step, and a wide
        family takes the index on its large steps, seen by a line tracer."""
        lines, first = inspect.getsourcelines(minimal_transversals)
        marks = {first + i: side for i, line in enumerate(lines)
                 for side, text in (("scan", "if not r & ~t:"),
                                    ("index", "dropped_at = list(drop.items())"))
                 if text in line}
        assert sorted(marks.values()) == ["index", "scan"]

        def sides(family):
            seen = set()

            def local(frame, event, arg):
                if event == "line" and frame.f_lineno in marks:
                    seen.add(marks[frame.f_lineno])
                return local

            code = minimal_transversals.__code__
            old = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
            try:
                got = minimal_transversals(family)
            finally:
                sys.settrace(old)
            assert got == oracle_berge_scan(family)
            return seen

        rng = random.Random(5)
        wide = [random_mask(rng, 18, 4) for _ in range(40)]  # the 982-member run below
        assert sides(wide) == {"scan", "index"}
        assert sides([random_mask(rng, 6, 2) for _ in range(9)]) == {"scan"}

    def test_dual_of_dual_on_wide_ideals(self):
        """Alexander duality is an involution, here on two seeded ideals on
        21 and 22 variables whose duals have over 1,000 generators."""
        for seed, n, count in ((4, 21, 38), (4, 22, 40)):
            rng = random.Random(seed)
            I = Ideal.from_masks(n, sorted({random_mask(rng, n, 3) for _ in range(count)}))
            dual = alexander_dual(I)
            assert len(dual.gens) > 1000
            assert alexander_dual(dual) == I

    def test_mask_and_count_stays_below_the_all_pairs_scan(self):
        """A Berge run with about 1k members on 18 vertices.  The drop test
        that scanned every kept member for every extension made 2,962,713
        mask & operations here; the filtered test must stay under a quarter
        of that (the scan over the members that meet the new set once made
        about 0.19 of it)."""
        rng = random.Random(5)
        family = [random_mask(rng, 18, 4) for _ in range(40)]
        CountingMask.ands = 0
        got = minimal_transversals([CountingMask(s) for s in family])
        assert len(got) == 982
        assert got == minimal_transversals(family)
        assert CountingMask.ands <= 2_962_713 // 4

    def test_indexed_drop_test_stays_below_a_tenth_of_the_all_pairs_scan(self):
        """The same run as above.  The scan over the kept members that meet
        the new set once made 552,555 mask & operations; indexing the missing
        members by vertex on the large steps must stay under a tenth of the
        all-pairs 2,962,713 (it makes about 0.04 of it)."""
        rng = random.Random(5)
        family = [random_mask(rng, 18, 4) for _ in range(40)]
        CountingMask.ands = 0
        got = minimal_transversals([CountingMask(s) for s in family])
        assert got == oracle_berge_scan(family)
        assert CountingMask.ands <= 2_962_713 // 10


OPTIMIZED_CHECKS = """
import sys
from monomial_lab.complexes import SimplicialComplex
from monomial_lab.core import Ideal, InputError, Monomial, minimal_generators
from monomial_lab.duality import alexander_dual
from monomial_lab.transversals import minimal_transversals

print("optimize", sys.flags.optimize)
nested = [Monomial(4, m) for m in (0b0111, 0b1000, 0b0011, 0b0111)]
cases = {
    "nested": lambda: Ideal.from_masks(4, [0b0011, 0b0111, 0b1000]),
    "duplicate": lambda: Ideal.from_masks(4, [0b0101, 0b0011, 0b0101]),
    "empty-set": lambda: minimal_transversals([0b11, 0, 0b100]),
    "zero-dual": lambda: alexander_dual(Ideal(3)),
    "facet-outside": lambda: SimplicialComplex(3, (0b111, 0b1000)),
    "round-trip": lambda: Ideal(4, minimal_generators(nested).gens).gen_masks,
}
for label, call in cases.items():
    try:
        print(label, "returned", call())
    except (InputError, ValueError) as exc:
        print(label, "raised", type(exc).__name__)
"""


class TestChecksSurviveOptimize:
    def test_input_checks_raise_under_O(self):
        src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:7] == [
            "optimize 1",
            "nested raised InputError",
            "duplicate raised InputError",
            "empty-set raised ValueError",
            "zero-dual raised InputError",
            "facet-outside raised InputError",
            "round-trip returned (8, 3)",
        ]


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


@pytest.fixture
def work(monkeypatch):
    """`work(call)` runs `call` on empty caches and returns its counts of
    `minimal_transversals` calls and `Ideal` constructions."""
    counts = {"transversals": 0, "ideals": 0}
    orig = transversals.minimal_transversals

    def counted(masks):
        counts["transversals"] += 1
        return orig(masks)

    for mod in (transversals, complexes, duality):
        if getattr(mod, "minimal_transversals", None) is orig:
            monkeypatch.setattr(mod, "minimal_transversals", counted)
    post_init = Ideal.__post_init__

    def counted_post_init(self):
        counts["ideals"] += 1
        post_init(self)

    monkeypatch.setattr(Ideal, "__post_init__", counted_post_init)

    def measure(call, clear=True):
        if clear:
            complexes.clear_caches()
        counts["transversals"] = counts["ideals"] = 0
        call()
        return counts["transversals"], counts["ideals"]

    yield measure
    complexes.clear_caches()


class TestDualWork:
    """Timing-free guards: how often a query computes the Alexander dual."""

    TRIANGLE = ideal(3, (1, 2), (2, 3), (1, 3))

    def test_check_corollary1(self, work):
        # is_S2, cohomological_dimension and the report's height profile
        # share one dual (three before the dual memo)
        assert work(lambda: check_corollary1(self.TRIANGLE)) == (1, 1)

    def test_height_profile_then_is_S2(self, work):
        I = self.TRIANGLE
        assert work(lambda: (height_profile(I), is_S2(I))) == (1, 1)  # was (2, 2)

    def test_check_theorem1(self, work):
        assert work(lambda: check_theorem1(self.TRIANGLE)) == (1, 1)

    def test_clear_caches_forces_recomputation(self, work):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        assert work(lambda: alexander_dual(I)) == (1, 1)
        assert work(lambda: alexander_dual(I), clear=False) == (0, 0)  # was (1, 1)
        assert complexes._dual_of.cache_info().currsize == 1
        complexes.clear_caches()
        assert complexes._dual_of.cache_info().currsize == 0
        assert work(lambda: alexander_dual(I), clear=False) == (1, 1)


class TestDualMemo:
    """The one-entry dual memo against the subset scan: it must never hand
    back the dual of another ideal."""

    def check(self, I, n, gens, how):
        expected = oracle_dual(gens, n)
        if how == "dual":
            dual = alexander_dual(I)
        elif how == "height":
            dual = height_profile(I).dual
        else:
            ok, c = is_S2(I)
            degs = {g.bit_count() for g in expected}
            assert c == min(degs)
            assert ok == (len(degs) == 1 and n2_verdict_masks(expected, c)[0])
            dual = alexander_dual(I)
        assert dual.ambient == n
        assert dual.gen_masks == expected
        assert complexes._dual_of.cache_info().currsize == 1

    def test_interleaved_against_subset_scan(self):
        """About 200 requests: new ideals, repeats of the last or an earlier
        one (A, B, A, A', ...), equal ideals built as separate objects, and
        the same masks at a larger ambient."""
        rng = random.Random(46)
        complexes.clear_caches()
        seen = []
        steps = 0
        while steps < 200:
            kind = rng.random()
            if seen and kind < 0.2:
                I, n, gens = seen[-1]  # the same object again
            elif len(seen) > 1 and kind < 0.45:
                _, n, gens = rng.choice(seen[-4:-1])  # an earlier ideal, rebuilt
                I = Ideal.from_masks(n, gens)
            elif seen and kind < 0.6:
                _, n, gens = seen[-1]  # the same masks, more variables
                n = min(n + rng.randint(1, 2), 10)
                I = Ideal.from_masks(n, gens)
            else:
                n = rng.randint(1, 8)
                gens = random_gens(rng, n, rng.randint(1, 6))
                if not gens:
                    continue
                I = Ideal.from_masks(n, gens)
            seen.append((I, n, gens))
            self.check(I, n, gens, rng.choice(("dual", "height", "s2")))
            steps += 1

    def test_same_masks_at_two_ambients(self):
        complexes.clear_caches()
        for n in (3, 4, 3, 4, 4):
            I = Ideal.from_masks(n, [0b11])
            dual = alexander_dual(I)
            assert dual.ambient == n and dual.gen_masks == (0b01, 0b10)
            assert height_profile(I).dual.ambient == n

    def test_equal_ideals_share_the_dual(self):
        complexes.clear_caches()
        A = ideal(4, (1, 2), (2, 3), (3, 4))
        B = ideal(4, (3, 4), (1, 2), (2, 3))
        assert A == B and A is not B
        assert alexander_dual(B) is alexander_dual(A)
        assert alexander_dual(A) == ideal(4, (1, 3), (2, 3), (2, 4))

    def test_zero_ideal_raises_before_the_memo(self):
        complexes.clear_caches()
        D = alexander_dual(ideal(3, (1, 2)))
        info = complexes._dual_of.cache_info()
        for call in (alexander_dual, height_profile, is_S2):
            with pytest.raises(InputError):
                call(Ideal(3))
        assert complexes._dual_of.cache_info() == info
        assert alexander_dual(ideal(3, (1, 2))) is D
