"""Generator-graph machinery, the two equivalent linearity criteria, and
the gcd witness search."""

import random

import pytest
from oracles import oracle_n2_verdict, oracle_truncation, random_gens

from monomial_lab.complexes import GF2, RATIONALS, FieldSpec
from monomial_lab.core import (
    Ideal,
    InputError,
    Monomial,
    PreconditionError,
    TheoremViolationError,
    minimal_generators,
    restriction,
    truncation,
    localize,
    UNIT_IDEAL,
)
from monomial_lab.harness import (
    degree_monomial_masks,
    enumerate_pure_ideals,
    remark_example,
)
from monomial_lab.linearity import (
    gcd_witness,
    generator_graph,
    is_N2_graph,
    is_Nk_betti,
    lcm_induced_subgraph,
    n2_verdict_masks,
)


def ideal(n, *var_tuples):
    return minimal_generators([Monomial.of(n, *vs) for vs in var_tuples], ambient=n)


def pure_random(rng, n, d, max_gens):
    pool = degree_monomial_masks(n, d)
    k = rng.randint(1, min(max_gens, len(pool)))
    return Ideal.from_masks(n, sorted(rng.sample(pool, k)))


class TestGeneratorGraph:
    def test_path(self):
        G = generator_graph(ideal(4, (1, 2), (2, 3), (3, 4)))
        assert G.edges() == [(0, 1), (1, 2)]

    def test_single_generator(self):
        G = generator_graph(ideal(3, (1, 2)))
        assert G.edges() == []

    def test_disjoint_pair(self):
        G = generator_graph(ideal(4, (1, 2), (3, 4)))
        assert G.edges() == []

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InputError):
            generator_graph(ideal(3, (1,), (2, 3)))


class TestLcmInducedSubgraph:
    def test_path_outer_pair(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        G = generator_graph(I)
        sub = lcm_induced_subgraph(G, 0, 2)
        assert sub.vertices == (0, 1, 2)
        assert sub.is_connected()

    def test_single_vertex(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        sub = lcm_induced_subgraph(generator_graph(I), 1, 1)
        assert sub.vertices == (1,)
        assert sub.is_connected()

    def test_disconnected(self):
        I = ideal(4, (1, 2), (3, 4))
        sub = lcm_induced_subgraph(generator_graph(I), 0, 1)
        assert sub.vertices == (0, 1)
        assert sub.edges == ()
        assert not sub.is_connected()

    def test_agrees_with_connectivity_criterion(self):
        # every (5, 2) ideal: the first disconnected pair is the N_2 witness
        for I in enumerate_pure_ideals(5, 2):
            G = generator_graph(I)
            r = len(I.gens)
            bad = [(I.gens[u], I.gens[v]) for u in range(r) for v in range(u + 1, r)
                   if not lcm_induced_subgraph(G, u, v).is_connected()]
            assert is_N2_graph(I) == (not bad, bad[0] if bad else None)

    def test_index_out_of_range(self):
        G = generator_graph(ideal(3, (1, 2)))
        with pytest.raises(InputError):
            lcm_induced_subgraph(G, 0, 1)


class TestN2Graph:
    def test_path_true(self):
        ok, witness = is_N2_graph(ideal(4, (1, 2), (2, 3), (3, 4)))
        assert ok and witness is None

    def test_disjoint_pair_false_with_witness(self):
        ok, witness = is_N2_graph(ideal(4, (1, 2), (3, 4)))
        assert not ok
        assert (str(witness[0]), str(witness[1])) == ("x1*x2", "x3*x4")

    def test_remark_truncation_false(self):
        I, _, g = remark_example()
        T = truncation(minimal_generators(list(I.gens) + [g], ambient=8), 4)
        assert not is_N2_graph(T)[0]

    def test_witness_is_canonically_first(self):
        # two disconnected pairs; the reported one must be the lexicographically
        # first generator-index pair
        I = ideal(6, (1, 2), (3, 4), (5, 6))
        ok, witness = is_N2_graph(I)
        assert not ok
        assert (str(witness[0]), str(witness[1])) == ("x1*x2", "x3*x4")

    def test_lcm_components_match_pairwise_search(self):
        """Seeded pure ideals of degree 2..4, linearly presented or not: the
        verdict and the first failing pair equal the pair-by-pair search."""
        rng = random.Random(34)
        seen = {d: set() for d in (2, 3, 4)}
        for _ in range(240):
            d = rng.randint(2, 4)
            n = rng.randint(d + 1, d + 4)
            gens = pure_random(rng, n, d, 16).gen_masks
            want = oracle_n2_verdict(gens, d)
            assert n2_verdict_masks(gens, d) == want, (n, gens)
            seen[d].add(want[0])
        assert all(verdicts == {True, False} for verdicts in seen.values()), seen


class TestNkBetti:
    def test_koszul_all_k(self):
        I = minimal_generators([Monomial.of(4, k) for k in range(1, 5)], ambient=4)
        for k in (1, 2, 3, 4):
            assert is_Nk_betti(I, k)

    def test_disjoint_pair_fails_k2(self):
        I = ideal(4, (1, 2), (3, 4))
        assert is_Nk_betti(I, 1)
        assert not is_Nk_betti(I, 2)

    def test_remark_linear_resolution(self):
        I, _, _ = remark_example()
        for k in (2, 3, 5, 9):
            assert is_Nk_betti(I, k)

    def test_monotone_in_k(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(3, 6)
            d = rng.randint(1, 3)
            I = pure_random(rng, n, d, 6)
            flags = [is_Nk_betti(I, k) for k in range(1, 5)]
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later

    def test_k_validation(self):
        with pytest.raises(InputError):
            is_Nk_betti(ideal(3, (1, 2)), 0)


class TestCriterionEquivalence:
    def test_exhaustive_degree2_small(self):
        for n in (3, 4):
            pool = degree_monomial_masks(n, 2)
            for subset in range(1, 1 << len(pool)):
                gens = tuple(pool[i] for i in range(len(pool)) if subset >> i & 1)
                I = Ideal.from_masks(n, gens)
                assert is_N2_graph(I)[0] == is_Nk_betti(I, 2, RATIONALS)

    def test_random_higher_degree(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(4, 7)
            d = rng.randint(3, min(4, n - 1))
            I = pure_random(rng, n, d, 8)
            want = is_N2_graph(I)[0]
            assert want == is_Nk_betti(I, 2, RATIONALS)
            assert want == is_Nk_betti(I, 2, GF2)


class TestFieldDependence:
    def test_projective_plane_nk_depends_on_characteristic(self):
        """The face ideal of the 6-vertex projective plane has a linear
        resolution over Q but torsion blocks the second step over GF(2);
        the N_2 verdicts still agree across fields (first syzygies of a
        monomial ideal are characteristic-free)."""
        from monomial_lab.complexes import SimplicialComplex
        from monomial_lab.transversals import minimal_transversals

        facets = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                  (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
        C = SimplicialComplex.from_vertex_sets(6, facets)
        full = (1 << 6) - 1
        I = Ideal.from_masks(6, minimal_transversals([full ^ f for f in C.facets]))
        assert is_N2_graph(I)[0]
        assert is_Nk_betti(I, 2, RATIONALS) and is_Nk_betti(I, 2, GF2)
        assert is_Nk_betti(I, 3, RATIONALS)
        assert not is_Nk_betti(I, 3, GF2)


class TestClosureProperties:
    def test_restriction_preserves_nk(self):
        rng = random.Random(33)
        checked = 0
        while checked < 30:
            n = rng.randint(3, 6)
            d = rng.randint(2, 3)
            if d > n:
                continue
            I = pure_random(rng, n, d, 6)
            k = rng.randint(2, 3)
            if not is_Nk_betti(I, k):
                continue
            U = rng.randrange(1 << n)
            R = restriction(I, U)
            if R.is_zero:
                continue
            assert is_Nk_betti(R, k)
            checked += 1

    def test_localization_preserves_n2_on_pure_parts(self):
        rng = random.Random(34)
        checked = 0
        while checked < 30:
            n = rng.randint(3, 6)
            d = rng.randint(2, 3)
            if d > n:
                continue
            I = pure_random(rng, n, d, 6)
            if not is_N2_graph(I)[0]:
                continue
            f = Monomial(n, rng.randint(1, (1 << n) - 1))
            I_f, Ibar = localize(I, f)
            for piece in (I_f, Ibar):
                if piece is UNIT_IDEAL or piece.is_zero:
                    continue
                if piece.pure_degree() is not None:
                    assert is_N2_graph(piece)[0]
                    checked += 1


class TestGcdWitness:
    def test_remark_witness_degree(self):
        I, f, _ = remark_example()
        f1, g = gcd_witness(I, f)
        assert g.degree == f.degree - 1 == 3
        assert I.contains(f1)
        # the only generator meeting f in degree 3
        assert str(f1) == "x1*x5*x6*x7" and str(g) == "x1*x5*x6"

    def test_contained_in_f_rejected(self):
        I = ideal(3, (1, 2, 3))
        with pytest.raises(PreconditionError):
            gcd_witness(I, Monomial.of(3, 1, 2))

    def test_degree_bounds_enforced(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        with pytest.raises(PreconditionError):
            gcd_witness(I, Monomial.of(4, 1))  # deg 1 < 2
        with pytest.raises(PreconditionError):
            gcd_witness(I, Monomial.of(4, 1, 3, 4))  # deg 3 > d

    def test_path_with_diagonal(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        f1, g = gcd_witness(I, Monomial.of(4, 1, 3))
        assert g.degree == 1
        assert str(f1) == "x1*x2" and str(g) == "x1"  # canonical first success
        T = truncation(minimal_generators(list(I.gens) + [g], ambient=4), 2)
        assert is_N2_graph(T)[0]

    def test_non_n2_truncation_rejected(self):
        I = ideal(5, (1, 2), (3, 4))
        # in (I + (x1x5))_[2] = (x1x2, x3x4, x1x5) the pair (x3x4, x1x5)
        # spans no third divisor of its lcm, so the hypothesis fails
        with pytest.raises(PreconditionError):
            gcd_witness(I, Monomial.of(5, 1, 5))


class TestGcdWitnessAgainstOracle:
    def test_seeded(self):
        """gcd_witness against a scan over the generators with truncations
        taken from the membership oracle."""
        rng = random.Random(51)
        outcomes = {"witness": 0, "precondition": 0}
        for _ in range(200):
            n = rng.randint(3, 6)
            d = rng.randint(2, min(3, n))
            I = pure_random(rng, n, d, 6)
            f = rng.choice([m for k in range(2, d + 1) for m in degree_monomial_masks(n, k)])

            def linear(extra):
                return is_N2_graph(Ideal.from_masks(n, oracle_truncation(
                    I.gen_masks + (extra,), n, d)))[0]

            if all(f & ~g == 0 for g in I.gen_masks) or not linear(f):
                outcomes["precondition"] += 1
                with pytest.raises(PreconditionError):
                    gcd_witness(I, Monomial(n, f))
                continue
            want = next((g for g in I.gen_masks
                         if (g & f).bit_count() == f.bit_count() - 1 and linear(g & f)), None)
            if want is None:
                with pytest.raises(TheoremViolationError):
                    gcd_witness(I, Monomial(n, f))
                continue
            outcomes["witness"] += 1
            assert gcd_witness(I, Monomial(n, f)) == (Monomial(n, want), Monomial(n, want & f))
        assert min(outcomes.values()) >= 40, outcomes
