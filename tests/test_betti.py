"""Betti tables, regularity, and projective dimension against a direct
Hochster-evaluation oracle and classical closed forms."""

import math
import random

import pytest
from oracles import (
    RP2_FACETS,
    faces_from_nonfaces,
    minimalize,
    oracle_homology,
    oracle_quotient_betti,
    oracle_saturated_walk,
    random_gens,
    random_mask,
    spread,
    taylor_counts,
    unpruned_nk_betti,
    unpruned_projective_dimension,
    unpruned_regularity,
)

from monomial_lab.betti import (
    _band,
    _pd_value,
    _reg_row,
    _reg_value,
    betti_table,
    nk_betti_masks,
    projective_dimension,
    projective_dimension_masks,
    regularity,
    regularity_masks,
)
from monomial_lab import complexes
from monomial_lab.complexes import GF2, RATIONALS, FieldSpec, homology_profile
from monomial_lab.core import Ideal, InputError, Monomial, canon_key, minimal_generators
from monomial_lab.duality import height_profile
from monomial_lab.harness import degree_monomial_masks, remark_example
from monomial_lab.linearity import is_Nk_betti


def ideal(n, *var_tuples):
    return minimal_generators([Monomial.of(n, *vs) for vs in var_tuples], ambient=n)


class TestBettiTable:
    def test_koszul_three_variables(self):
        I = ideal(3, (1,), (2,), (3,))
        t = betti_table(I)
        assert t.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}

    def test_principal(self):
        t = betti_table(ideal(4, (1, 2)))
        assert t.entries == {(0, 2): 1}

    def test_two_disjoint_edges(self):
        t = betti_table(ideal(4, (1, 2), (3, 4)))
        assert t.entries == {(0, 2): 2, (1, 4): 1}

    def test_quotient_has_beta_00(self):
        t = betti_table(ideal(3, (1, 2)), quotient=True)
        assert t.entries[(0, 0)] == 1

    def test_zero_ideal_rejected(self):
        with pytest.raises(InputError):
            betti_table(Ideal(3))

    def test_fine_sums_to_coarse(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            t = betti_table(Ideal.from_masks(n, gens), fine=True)
            sums = {}
            for (i, sigma), r in t.fine.items():
                key = (i, sigma.bit_count())
                sums[key] = sums.get(key, 0) + r
            assert sums == t.entries

    def test_against_hochster_oracle(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            for field, p in ((RATIONALS, None), (GF2, 2)):
                want_coarse, want_fine = oracle_quotient_betti(gens, n, p)
                t = betti_table(I, field, fine=True, quotient=True)
                assert t.entries == want_coarse
                assert t.fine == want_fine

    def test_permutation_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = []
            for g in gens:
                m = 0
                for b in range(n):
                    if g >> b & 1:
                        m |= 1 << perm[b]
                permuted.append(m)
            a = betti_table(Ideal.from_masks(n, gens)).entries
            b = betti_table(minimal_generators(
                [Monomial(n, m) for m in permuted], ambient=n)).entries
            assert a == b

    def test_taylor_bound_dominates(self):
        rng = random.Random(24)
        for _ in range(25):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            bounds = taylor_counts(gens)
            t = betti_table(Ideal.from_masks(n, gens))
            for key, r in t.entries.items():
                assert r <= bounds.get(key, 0)

    def test_grid_and_json(self):
        t = betti_table(ideal(4, (1, 2), (3, 4)))
        grid = t.format_grid()
        assert "j-i" in grid and "2" in grid
        assert t.to_json_entries() == [
            {"i": 0, "j": 2, "rank": 2},
            {"i": 1, "j": 4, "rank": 1},
        ]


FIELDS = ((RATIONALS, None), (GF2, 2), (FieldSpec(32003), 32003))


class TestPrunedScan:
    """The pruned scan against the Hochster oracle and against the unpruned
    scans it replaced, with generators handed over in shuffled order."""

    def test_reg_pd_and_fine_table_mixed_degree(self):
        complexes.clear_caches()
        rng = random.Random(30)
        linear = mixed = 0
        scanned = []
        for _ in range(40):
            n = rng.randint(2, 7)
            picks = [random_mask(rng, n, rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 7))]
            if rng.random() < 0.4:
                picks.append(random_mask(rng, n, 1))
            gens = minimalize(picks)
            linear += any(g.bit_count() == 1 for g in gens)
            mixed += len({g.bit_count() for g in gens}) > 1
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scanned.append(tuple(shuffled))
            I = Ideal.from_masks(n, gens)
            for field, p in FIELDS:
                coarse, fine = oracle_quotient_betti(gens, n, p)
                want_reg = max(j - i for (i, j) in coarse if i >= 1) + 1
                want_pd = max(i for (i, _) in coarse)
                assert regularity_masks(tuple(shuffled), field) == want_reg
                assert unpruned_regularity(gens, field) == want_reg
                assert projective_dimension_masks(tuple(shuffled), field) == want_pd
                assert unpruned_projective_dimension(gens, field) == want_pd
                assert betti_table(I, field, fine=True, quotient=True).fine == fine
        assert linear >= 10 and mixed >= 10
        # shuffled input still reaches the scan's homology store in canonical form
        complexes.clear_caches()
        for shuffled in scanned:
            for field, _ in FIELDS:
                regularity_masks(shuffled, field)
                projective_dimension_masks(shuffled, field)
        assert complexes._F2_DATA
        for _m, local, _p in complexes._F2_DATA:
            assert list(local) == sorted(local, key=canon_key)

    def test_nk_pure_degree(self):
        rng = random.Random(31)
        verdicts = set()
        for _ in range(40):
            n = rng.randint(2, 7)
            d = rng.randint(1, min(3, n))
            gens = random_gens(rng, n, rng.randint(1, 8), dmin=d, dmax=d)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            I = Ideal.from_masks(n, gens)
            for field, p in FIELDS:
                coarse, _ = oracle_quotient_betti(gens, n, p)
                for k in (1, 2, 3):
                    want = all(j == i - 1 + d for (i, j) in coarse if 1 <= i <= k)
                    verdicts.add(want)
                    assert is_Nk_betti(I, k, field) == want
                    assert nk_betti_masks(tuple(shuffled), d, k, field) == want
                    assert unpruned_nk_betti(gens, d, k, field) == want
        assert verdicts == {True, False}

    def test_torsion_hits_mid_walk(self, monkeypatch):
        """Ideals holding the RP^2 face ideal on six of their variables, plus
        seeded extra generators: GF(2) sees 2-torsion that Q does not, on
        sigma met mid-walk, and the scan over Q refuses those hits there.
        Extras on the other variables keep the torsion in the answer (the
        Betti table of a sum in disjoint variables is a tensor product); a
        degree-3 extra anywhere may hide it."""
        from monomial_lab import betti
        from monomial_lab.transversals import minimal_transversals

        facets = [sum(1 << (v - 1) for v in f) for f in RP2_FACETS]
        rp2 = minimal_transversals([0b111111 ^ f for f in facets])
        confirm, refused = betti.exact_rational_hq, []

        def spy(m, local, q):
            h = confirm(m, local, q)
            if not h:
                refused.append(m)
            return h

        monkeypatch.setattr(betti, "exact_rational_hq", spy)
        rng = random.Random(32)
        counts = {"reg/pd": 0, "nk": 0, "mid-walk": 0}
        for trial in range(16):
            complexes.clear_caches()
            refused.clear()
            n = rng.randint(7, 8)
            where = rng.sample(range(n), 6)
            others = [b for b in range(n) if b not in where]
            embedded = [sum(1 << where[b] for b in range(6) if g >> b & 1) for g in rp2]
            if trial % 2:  # pure of degree 3, for the N_k criterion
                d = 3
                extra = [random_mask(rng, n, 3) for _ in range(rng.randint(1, 2))]
            else:
                d = None
                extra = [sum(1 << b for b in rng.sample(others, rng.randint(1, len(others))))
                         for _ in range(rng.randint(1, 2))]
                if trial % 4:
                    extra.append(random_mask(rng, n, 3))
            gens = minimalize(embedded + extra)
            supp = 0
            for g in gens:
                supp |= g
            shuffled = list(gens)
            rng.shuffle(shuffled)
            answers = {}
            for field, p in FIELDS[:2]:
                coarse, _ = oracle_quotient_betti(gens, n, p)
                want_reg = max(j - i for (i, j) in coarse if i >= 1) + 1
                want_pd = max(i for (i, _) in coarse)
                assert regularity_masks(tuple(shuffled), field) == want_reg
                assert unpruned_regularity(gens, field) == want_reg
                assert projective_dimension_masks(tuple(shuffled), field) == want_pd
                assert unpruned_projective_dimension(gens, field) == want_pd
                answers[p] = [want_reg, want_pd]
                for k in (1, 2, 3) if d else ():
                    want = all(j == i - 1 + d for (i, j) in coarse if 1 <= i <= k)
                    assert nk_betti_masks(tuple(shuffled), d, k, field) == want
                    assert unpruned_nk_betti(gens, d, k, field) == want
                    answers[p].append(want)
            counts["nk" if d else "reg/pd"] += answers[None] != answers[2]
            # the walk starts at the whole support; a refusal below it is mid-walk
            counts["mid-walk"] += any(m < supp.bit_count() for m in refused)
        assert counts["reg/pd"] >= 4 and counts["nk"] >= 2 and counts["mid-walk"] >= 6, counts


class TestBandedScan:
    """The scans reduce only the boundary maps of the band of profile
    indices that can still beat the best value; checked against the full
    profiles and the Hochster oracle."""

    def test_against_full_profiles_and_oracle(self):
        """Seeded ideals, mixed degrees for reg and pd and pure ones for
        N_k, k = 1..3, over Q, GF(2), GF(3) and GF(32003): the banded scans
        equal the full Betti table and the oracle; every dimension a scan
        stored equals the full profile's, and a full profile served from
        the partial entries equals a fresh one."""
        rng = random.Random(35)
        partial, verdicts = 0, set()
        for trial in range(30):
            n = rng.randint(3, 8)
            d = rng.randint(2, min(3, n - 1)) if trial % 3 == 0 else None
            if d:
                gens = random_gens(rng, n, rng.randint(2, 9), dmin=d, dmax=d)
            else:
                gens = random_gens(rng, n, rng.randint(2, 8), dmax=min(4, n))
            I = Ideal.from_masks(n, gens)
            for field, p in FIELDS + ((FieldSpec(3), 3),):
                coarse, _ = oracle_quotient_betti(gens, n, p)
                complexes.clear_caches()
                assert betti_table(I, field, quotient=True).entries == coarse
                complexes.clear_caches()
                assert regularity_masks(gens, field) == max(
                    j - i for (i, j) in coarse if i >= 1) + 1
                assert projective_dimension_masks(gens, field) == max(i for (i, _) in coarse)
                for k in (1, 2, 3) if d else ():
                    want = all(j == i - 1 + d for (i, j) in coarse if 1 <= i <= k)
                    assert nk_betti_masks(gens, d, k, field) == want
                    verdicts.add(want)
                stored = {key: list(entry[2]) for key, entry in complexes._F2_DATA.items()}
                served = {key: homology_profile(key[0], key[1], field) for key in stored}
                complexes.clear_caches()
                for (m, local, q), h in stored.items():
                    partial += None in h
                    full = homology_profile(m, local, FieldSpec(q))
                    assert all(v is None or v == w for v, w in zip(h, full))
                    assert served[(m, local, q)] == homology_profile(m, local, field)
                    want = oracle_homology(faces_from_nonfaces(local, m), m, q)
                    assert {s - 1: full[s] for s in range(m + 1) if s - 1 in want} == want
                    assert sum(full) == sum(want.values())
        assert partial >= 50 and verdicts == {True, False}, (partial, verdicts)

    def test_scans_list_under_half_the_faces(self, monkeypatch):
        """A work count, not a timing: on a seeded n = 12, degree-3 ideal
        the reg and pd scans list under half the faces that full profiles
        of the same local complexes list."""
        listed, visited = [0], []
        faces_by_size = complexes._faces_by_size
        boundary_ranks = complexes._boundary_ranks

        def counting(m, bitmap):
            groups = faces_by_size(m, bitmap)
            listed[0] += sum(len(g) for g in groups)
            return groups

        def recording(m, local, p, lo, hi):
            visited.append((m, local))
            return boundary_ranks(m, local, p, lo, hi)

        from monomial_lab import betti

        monkeypatch.setattr(complexes, "_faces_by_size", counting)
        monkeypatch.setattr(betti, "_boundary_ranks", recording)
        gens = tuple(random.Random(0).sample(degree_monomial_masks(12, 3), 24))
        field = FieldSpec(32003)
        for scan, want in ((regularity_masks, 6), (projective_dimension_masks, 7)):
            complexes.clear_caches()
            listed[0], visited[:] = 0, []
            assert scan(gens, field) == want
            banded = listed[0]
            complexes.clear_caches()
            listed[0] = 0
            for m, local in dict.fromkeys(visited):
                homology_profile(m, local, field)
            assert 0 < 2 * banded < listed[0], (scan.__name__, banded, listed[0])

    def test_relative_complexes_list_a_quarter_of_the_faces(self, monkeypatch):
        """A work count, not a timing: on the seeded n = 12 ideal above,
        the reg and pd scans over the relative complexes of one vertex star
        list at most a quarter of the 18,895 and 26,329 faces that the same
        banded scans list when each local complex is reduced whole."""
        listed = [0]
        faces_by_size = complexes._faces_by_size

        def counting(m, bitmap):
            groups = faces_by_size(m, bitmap)
            listed[0] += sum(len(g) for g in groups)
            return groups

        monkeypatch.setattr(complexes, "_faces_by_size", counting)
        gens = tuple(random.Random(0).sample(degree_monomial_masks(12, 3), 24))
        field = FieldSpec(32003)
        for scan, want, whole in ((regularity_masks, 6, 18895),
                                  (projective_dimension_masks, 7, 26329)):
            complexes.clear_caches()
            listed[0] = 0
            assert scan(gens, field) == want
            assert 0 < 4 * listed[0] <= whole, (scan.__name__, listed[0])


def blocks(degrees, overlap=0):
    """Generators on consecutive runs of variables of the given degrees,
    each run sharing `overlap` variables with the one before: overlap 0 is
    a complete intersection."""
    masks, start = [], 0
    for a in degrees:
        masks.append(((1 << a) - 1) << start)
        start += a - overlap
    return tuple(masks)


DISJOINT = blocks((6, 6, 6, 6))  # 24 variables
CHAIN = blocks((7, 7, 7, 7), overlap=1)  # 25 variables


class TestTaylorAndSkeletonCuts:
    """The reg and pd scans score 0 on the slots that Taylor's resolution
    (quotient index between ceil(m / D) and r) and the full skeleton below
    the smallest generator degree leave zero."""

    def test_against_unpruned_scans_where_the_cuts_bite(self):
        """Seeded ideals of mixed degrees 1..6 with fewer generators than
        support vertices, on up to 14 of them: a complete intersection on a
        random partition plus up to two random generators.  Over Q, GF(2)
        and GF(3) both scans equal the rule-free unpruned ones, and in most
        trials the cuts narrow or empty the band of the whole support at the
        answer, where the rule-free band still scans."""
        rng = random.Random(70)
        bites = {"reg": 0, "pd": 0}
        for _ in range(30):
            n = rng.randint(8, 14)
            while True:
                order = rng.sample(range(n), n)
                picks = []
                while order:
                    size = min(rng.randint(1, 6), len(order))
                    picks.append(sum(1 << v for v in order[:size]))
                    del order[:size]
                picks += [random_mask(rng, n, rng.randint(2, 6)) for _ in range(rng.randint(0, 2))]
                gens = minimalize(picks)
                supp = 0
                for g in gens:
                    supp |= g
                if len({g.bit_count() for g in gens}) > 1 and len(gens) < supp.bit_count():
                    break
            shuffled = list(gens)
            rng.shuffle(shuffled)
            for field in (RATIONALS, GF2, FieldSpec(3)):
                reg = regularity_masks(tuple(shuffled), field)
                pd = projective_dimension_masks(tuple(shuffled), field)
                assert reg == unpruned_regularity(gens, field), (gens, field)
                assert pd == unpruned_projective_dimension(gens, field), (gens, field)
            top = supp.bit_count()
            degrees = [g.bit_count() for g in gens]
            bites["reg"] += _band(top, reg, _reg_value(max(degrees))) != _band(top, reg, _reg_row)
            rule_free = _band(top, pd, lambda m, idx: m - idx)
            bites["pd"] += rule_free is not None and _band(
                top, pd, _pd_value(len(gens), min(degrees))) is None
        assert bites["reg"] >= 10 and bites["pd"] >= 15, bites

    def test_pd_reduces_only_the_support(self, monkeypatch):
        """A count guard: on 4 disjoint degree-6 monomials and on the chain
        of 4 degree-7 monomials sharing one variable with each neighbour,
        the pd scan reduces the complex of sigma = supp alone, where it
        finds pd = r = 4, the largest value the cuts leave."""
        from monomial_lab import betti

        sizes = []
        sigma_max = betti._sigma_max

        def spy(m, local, field, best, value, band):
            sizes.append(m)
            return sigma_max(m, local, field, best, value, band)

        monkeypatch.setattr(betti, "_sigma_max", spy)
        for gens, m in ((DISJOINT, 24), (CHAIN, 25)):
            sizes.clear()
            assert projective_dimension_masks(gens) == 4
            assert sizes == [m]

    @pytest.mark.parametrize("degrees", [(2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, 3, 8, 10)])
    @pytest.mark.parametrize("field", [RATIONALS, GF2, FieldSpec(3)], ids=str)
    def test_complete_intersections(self, degrees, field):
        """reg = sum(deg - 1) + 1 and pd = r, on up to 24 variables."""
        gens = blocks(degrees)
        assert regularity_masks(gens, field) == sum(a - 1 for a in degrees) + 1
        assert projective_dimension_masks(gens, field) == len(degrees)

    def test_chain_regularity(self):
        """The chain's regularity, 22 = 25 - 4 + 1, the top row the Taylor
        cut leaves; its pd, 4, is pinned by the count guard above."""
        assert regularity_masks(CHAIN) == 22

    def test_value_maxima_never_fall(self):
        """`_scan_max` needs each value function's maximum over idx <= m - 2
        to be non-decreasing in m.  The reg maximum sits at the highest live
        idx, min(m - 2, m - ceil(m / D)), one row above it; the pd maximum
        is min(m, r, m - d_min + 1) when that leaves a slot (quotient index
        >= 2), and 0 otherwise."""
        def maximum(value, m):
            return max((value(m, idx) for idx in range(m - 1)), default=0)

        for top_degree in range(1, 9):
            value, last = _reg_value(top_degree), 0
            for m in range(31):
                best = maximum(value, m)
                assert best >= last, (top_degree, m)
                last = best
                live = [idx for idx in range(m - 1) if value(m, idx)]
                if m >= 2:
                    assert live[-1] == min(m - 2, m - -(-m // top_degree)), (top_degree, m)
                    assert best == live[-1] + 1
                else:
                    assert best == 0
        for count in range(1, 12):
            for low_degree in range(1, 9):
                value, last = _pd_value(count, low_degree), 0
                for m in range(31):
                    best = maximum(value, m)
                    assert best >= last, (count, low_degree, m)
                    last = best
                    want = min(m, count, m - low_degree + 1)
                    assert best == (want if want >= 2 else 0), (count, low_degree, m)


class TestSaturatedWalk:
    def test_raised_floor_lists_no_smaller_sigma(self, monkeypatch):
        """Once the floor is raised after the first yield, no sigma below it
        has its restricted generators listed.  The walk lists them by asking
        its generator index for the generators inside sigma; the spy index
        records every sigma asked about."""
        from monomial_lab import betti
        from monomial_lab.betti import _saturated_sigmas
        from monomial_lab.core import MaskIndex

        listed = []

        class Spy(MaskIndex):
            __slots__ = ()

            def inside(self, b):
                listed.append(b)
                return super().inside(b)

        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(4, 8)
            gens = random_gens(rng, n, rng.randint(2, 8))
            supp = 0
            for g in gens:
                supp |= g
            full = list(_saturated_sigmas(gens, supp))
            floor = [0]
            with monkeypatch.context() as m:
                m.setattr(betti, "MaskIndex", Spy)
                walk = _saturated_sigmas(gens, supp, floor)
                first, _, _ = next(walk)
                floor[0] = rng.randint(1, supp.bit_count())
                listed.clear()
                rest = [sigma for sigma, _, _ in walk]
            assert all(sigma.bit_count() >= floor[0] for sigma in listed)
            assert set(rest) <= set(listed)
            assert [first] + rest == [full[0][0]] + [
                sigma for sigma, _, _ in full[1:] if sigma.bit_count() >= floor[0]]

    def test_at_least_is_the_largest_big_enough_submask_below(self):
        """`_at_least` against a scan of every submask of the support."""
        from monomial_lab.betti import _at_least

        rng = random.Random(62)
        for _ in range(200):
            supp = random_mask(rng, 12, rng.randint(0, 8))
            subs = [s for s in range(supp + 1) if s & ~supp == 0]
            sigma = rng.choice(subs)
            size = rng.randint(0, supp.bit_count() + 1)
            want = max((s for s in subs if s <= sigma and s.bit_count() >= size), default=-1)
            assert _at_least(sigma, supp, size) == want, (supp, sigma, size)

    def test_matches_reference_walk(self):
        """The walk gives the reference walk's (sigma, m, local generators
        in generator order), in its order, on generators in any order spread
        over up to three bytes, with and without a floor."""
        from monomial_lab.betti import _saturated_sigmas

        rng = random.Random(61)
        for trial in range(200):
            n = rng.randint(1, 9)
            gens = spread(random_gens(rng, n, rng.randint(1, 9)), n, rng.randint(n, 24), rng)
            if trial % 2:
                rng.shuffle(gens)
            supp = 0
            for g in gens:
                supp |= g
            floor = rng.randint(0, supp.bit_count()) if trial % 3 == 0 else 0
            got = list(_saturated_sigmas(gens, supp, [floor]))
            assert got == oracle_saturated_walk(gens, supp, floor)


class TestRegularity:
    def test_examples(self):
        assert regularity(ideal(3, (1, 2, 3))) == 3
        assert regularity(ideal(4, (1, 2), (3, 4))) == 3
        I, _, _ = remark_example()
        assert regularity(I) == 4

    def test_row_zero_sits_at_generator_degree(self):
        rng = random.Random(25)
        for _ in range(20):
            n = rng.randint(2, 6)
            d = rng.randint(1, n)
            gens = random_gens(rng, n, rng.randint(1, 5), dmin=d, dmax=d)
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            t = betti_table(I)
            assert min(j for (i, j) in t.entries if i == 0) == d
            assert regularity(I) >= d

    def test_matches_table_offset(self):
        rng = random.Random(26)
        for _ in range(30):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            for field in (RATIONALS, GF2, FieldSpec(32003)):
                assert regularity(I, field) == betti_table(I, field).max_offset()

    def test_ideal_vs_quotient_conventions(self):
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            q = betti_table(I, quotient=True)
            assert regularity(I) == q.max_offset() + 1

    def test_zero_ideal_rejected(self):
        with pytest.raises(InputError):
            regularity(Ideal(2))


class TestCycleRegularity:
    def test_published_closed_form(self):
        """Cycle edge ideals have a known closed-form regularity:
        floor(n/3) + 1 when n = 0, 1 mod 3 and floor(n/3) + 2 otherwise."""
        for n in range(3, 11):
            I = minimal_generators(
                [Monomial.of(n, i + 1, (i + 1) % n + 1) for i in range(n)],
                ambient=n,
            )
            want = n // 3 + (1 if n % 3 in (0, 1) else 2)
            assert regularity(I) == want, n

    def test_complete_graph_linear_resolution(self):
        K7 = minimal_generators(
            [Monomial.of(7, a, b) for a in range(1, 8) for b in range(a + 1, 8)],
            ambient=7,
        )
        assert regularity(K7) == 2  # complement chordal (empty)


class TestRestrictionMonotonicity:
    def test_restriction_never_raises_betti(self):
        """Restricting to a vertex subset selects a sub-sum of the fine
        table, so every coarse entry and the regularity can only drop."""
        rng = random.Random(61)
        done = 0
        while done < 25:
            n = rng.randint(3, 6)
            gens = random_gens(rng, n, rng.randint(2, 6))
            if not gens:
                continue
            from monomial_lab.core import restriction

            I = Ideal.from_masks(n, gens)
            U = rng.randrange(1 << n)
            R = restriction(I, U)
            if R.is_zero:
                continue
            big = betti_table(I).entries
            for key, r in betti_table(R).entries.items():
                assert r <= big.get(key, 0)
            assert regularity(R) <= regularity(I)
            done += 1


class TestCharacteristicSensitivity:
    def test_projective_plane_ideal(self):
        """The face ideal of the 6-vertex projective plane: Cohen-Macaulay
        away from characteristic 2, so reg and pd both jump at GF(2).  The
        GF(2) filter proposes the torsion positions and the exact integer
        elimination must refute them over the rationals."""
        from monomial_lab.complexes import SimplicialComplex, stanley_reisner
        from monomial_lab.transversals import minimal_transversals

        C = SimplicialComplex.from_vertex_sets(6, RP2_FACETS)
        full = (1 << 6) - 1
        I = Ideal.from_masks(6, minimal_transversals([full ^ f for f in C.facets]))
        assert stanley_reisner(I) == C
        assert len(I.gens) == 10 and I.pure_degree() == 3
        assert regularity(I, RATIONALS) == 3
        assert regularity(I, GF2) == 4
        assert projective_dimension(I, RATIONALS) == 3  # = codim: CM over Q
        assert projective_dimension(I, GF2) == 4


class TestProjectiveDimension:
    def test_koszul(self):
        for c in (1, 2, 3, 4):
            I = minimal_generators([Monomial.of(5, k) for k in range(1, c + 1)], ambient=5)
            assert projective_dimension(I) == c

    def test_principal(self):
        assert projective_dimension(ideal(4, (1, 2))) == 1

    def test_triangle(self):
        assert projective_dimension(ideal(3, (1, 2), (2, 3), (1, 3))) == 2

    def test_matches_table_and_bounds_height(self):
        rng = random.Random(28)
        for _ in range(25):
            n = rng.randint(2, 6)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            pd = projective_dimension(I)
            assert pd == betti_table(I, quotient=True).max_index()
            assert pd >= height_profile(I).height

    def test_complete_intersection_equality(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 7)
            # pairwise disjoint supports
            order = list(range(n))
            rng.shuffle(order)
            gens = []
            pos = 0
            while pos < n:
                size = rng.randint(1, min(3, n - pos))
                if rng.random() < 0.7:
                    m = 0
                    for b in order[pos:pos + size]:
                        m |= 1 << b
                    gens.append(m)
                pos += size
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            assert projective_dimension(I) == height_profile(I).height == len(gens)
