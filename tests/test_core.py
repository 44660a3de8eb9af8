"""Monomial and ideal arithmetic against brute-force enumeration."""

import ast
import pathlib
import random
import re

import pytest
from oracles import (
    minimalize,
    oracle_is_antichain,
    oracle_intersection,
    oracle_localize,
    oracle_sum,
    oracle_truncation,
    random_gens,
    random_mask,
    spread,
)

import monomial_lab
from monomial_lab.core import (
    UNIT_IDEAL,
    CapacityError,
    Ideal,
    InputError,
    MaskIndex,
    Monomial,
    divides,
    format_ideal,
    gcd,
    ideal_intersection,
    ideal_sum,
    lcm,
    localize,
    minimal_generators,
    minimalize_masks,
    parse_ideal,
    restriction,
    to_json,
    truncation,
)
from monomial_lab.betti import betti_table, projective_dimension, regularity
from monomial_lab.bounds import (
    check_corollary1,
    check_theorem1,
    f_bound,
    faltings_bound,
    g_bound,
    sharp_example,
    theorem_bound,
)
from monomial_lab.complexes import (
    FieldSpec,
    SimplicialComplex,
    alexander_dual,
    reduced_homology_dims,
    restrict_complex,
    stanley_reisner,
)
from monomial_lab.duality import cohomological_dimension, height_profile, is_S2
from monomial_lab.harness import gcd_lemma_sweep, open_case_search, verify_range
from monomial_lab.linearity import (
    gcd_witness,
    generator_graph,
    is_N2_graph,
    is_Nk_betti,
    lcm_induced_subgraph,
)


def mono(n, *vs):
    return Monomial.of(n, *vs)


def ideal(n, *var_tuples):
    return minimal_generators([mono(n, *vs) for vs in var_tuples], ambient=n)


class TestMonomial:
    def test_of_and_vars(self):
        m = mono(5, 1, 3)
        assert m.vars == (1, 3)
        assert m.degree == 2
        assert str(m) == "x1*x3"

    def test_empty_monomial_is_one(self):
        m = Monomial(3)
        assert m.is_one and m.degree == 0 and str(m) == "1"

    def test_out_of_range_variable(self):
        with pytest.raises(InputError):
            mono(3, 4)
        with pytest.raises(InputError):
            mono(3, 0)

    def test_ambient_cap(self):
        with pytest.raises(CapacityError):
            Monomial(65)


class TestLcmGcdDivides:
    def test_lcm_examples(self):
        assert lcm(mono(4, 1, 2), mono(4, 2, 3)) == mono(4, 1, 2, 3)
        u = mono(4, 1, 4)
        assert lcm(u, u) == u
        assert lcm(mono(4, 1, 2), mono(4, 3, 4)) == mono(4, 1, 2, 3, 4)

    def test_gcd_examples(self):
        assert gcd(mono(4, 1, 2, 3), mono(4, 2, 3, 4)) == mono(4, 2, 3)
        assert gcd(mono(4, 1, 2), mono(4, 3, 4)).is_one
        u = mono(4, 2, 3)
        assert gcd(u, u) == u

    def test_divides_examples(self):
        assert divides(mono(3, 2), mono(3, 1, 2))
        assert not divides(mono(3, 1, 2), mono(3, 1))
        assert divides(Monomial(3), mono(3, 1, 2, 3))

    def test_ambient_mismatch(self):
        for op in (lcm, gcd, divides):
            with pytest.raises(InputError):
                op(mono(3, 1), mono(4, 1))

    def test_degree_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 10)
            u = Monomial(n, rng.randrange(1 << n))
            v = Monomial(n, rng.randrange(1 << n))
            assert lcm(u, v).degree + gcd(u, v).degree == u.degree + v.degree
            assert lcm(u, v) == lcm(v, u) and gcd(u, v) == gcd(v, u)

    def test_lattice_laws(self):
        rng = random.Random(70)
        for _ in range(100):
            n = rng.randint(1, 8)
            u, v, w = (Monomial(n, rng.randrange(1 << n)) for _ in range(3))
            assert lcm(lcm(u, v), w) == lcm(u, lcm(v, w))
            assert gcd(gcd(u, v), w) == gcd(u, gcd(v, w))
            assert lcm(u, gcd(u, v)) == u and gcd(u, lcm(u, v)) == u


class TestIdealConstruction:
    def test_canonical_order(self):
        I = ideal(4, (3, 4), (1, 2), (2, 3))
        assert [str(g) for g in I.gens] == ["x1*x2", "x2*x3", "x3*x4"]

    def test_constructor_rejects_non_antichain(self):
        with pytest.raises(InputError):
            Ideal(3, (mono(3, 1), mono(3, 1, 2)))

    def test_antichain_check_against_pairwise_oracle(self):
        """The constructor accepts a family exactly when no mask lies inside
        another, on random families with nested, duplicate and same-degree
        masks, in any order."""
        rng = random.Random(19)
        accepted = rejected = 0
        for _ in range(600):
            n = rng.randint(1, 12)
            family = [random_mask(rng, n, rng.randint(1, n)) for _ in range(rng.randint(1, 9))]
            if rng.random() < 0.5:
                family = list(minimalize(family))
                if rng.random() < 0.5:
                    base = rng.choice(family)
                    family.append(base | random_mask(rng, n, rng.randint(0, n)))
            rng.shuffle(family)
            ok = oracle_is_antichain(family)
            try:
                I = Ideal.from_masks(n, family)
            except InputError:
                assert not ok, family
                rejected += 1
            else:
                assert ok, family
                assert I.gen_masks == tuple(sorted(family, key=lambda m: (m.bit_count(), m)))
                accepted += 1
        assert accepted > 100 and rejected > 100

    def test_mask_index_lists_the_masks_inside(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 20)
            masks = [random_mask(rng, n, rng.randint(0, n)) for _ in range(rng.randint(0, 12))]
            index = MaskIndex(masks)
            for _ in range(5):
                b = random_mask(rng, n, rng.randint(0, n))
                want = sum(1 << i for i, g in enumerate(masks) if g & ~b == 0)
                assert index.inside(b) == want

    def test_minimalize_masks_against_pairwise_oracle(self):
        """Families with 0, duplicates, nested masks, one degree or several,
        on up to 16 variables spread over up to 64 bits."""
        rng = random.Random(29)
        pure = mixed = 0
        for trial in range(800):
            n = rng.randint(1, 16)
            if rng.random() < 0.3:
                degree = rng.randint(1, n)
                family = [random_mask(rng, n, degree) for _ in range(rng.randint(1, 30))]
            else:
                family = [random_mask(rng, n, rng.randint(1, n)) for _ in range(rng.randint(1, 30))]
            for _ in range(rng.randint(0, 10)):
                base = rng.choice(family)
                kind = rng.randrange(3)
                if kind == 0:
                    family.append(base)
                elif kind == 1:
                    family.append(base | random_mask(rng, n, rng.randint(0, n)))
                else:
                    family.append(base & random_mask(rng, n, rng.randint(0, n)))
            if rng.random() < 0.1:
                family.append(0)
            if rng.random() < 0.5:
                family = spread(family, n, rng.randint(n, 64), rng)
            rng.shuffle(family)
            got = minimalize_masks(family)
            assert got == minimalize(family), (trial, family)
            if len({m.bit_count() for m in family}) == 1:
                pure += 1
            else:
                mixed += 1
        assert minimalize_masks([]) == ()
        assert minimalize_masks([0, 0b11, 0]) == (0,)
        assert pure > 50 and mixed > 400

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(InputError):
            Ideal(3, (mono(3, 1, 2), mono(3, 1, 2)))

    @pytest.mark.parametrize("gens", [(3,), (0b11, mono(4, 1)), ("x1",), (None,)])
    def test_constructor_rejects_non_monomials(self, gens):
        with pytest.raises(InputError):
            Ideal(4, gens)

    def test_constructor_rejects_unit(self):
        with pytest.raises(InputError):
            Ideal(3, (Monomial(3),))

    def test_zero_ideal(self):
        z = Ideal(4)
        assert z.is_zero and str(z) == "(0)" and z.supp_mask == 0

    def test_minimal_generators_examples(self):
        I = ideal(3, (1,), (1, 2), (3,))
        assert [str(g) for g in I.gens] == ["x1", "x3"]
        J = minimal_generators([mono(3, 1, 2), mono(3, 1, 2)])
        assert [str(g) for g in J.gens] == ["x1*x2"]
        K = ideal(4, (1, 2), (3, 4), (2, 3))
        assert [str(g) for g in K.gens] == ["x1*x2", "x2*x3", "x3*x4"]

    def test_minimal_generators_rejects_unit(self):
        with pytest.raises(InputError):
            minimal_generators([Monomial(3)], ambient=3)

    def test_minimal_generators_order_insensitive(self):
        rng = random.Random(1)
        for _ in range(50):
            gens = random_gens(rng, 6, rng.randint(1, 8))
            if not gens:
                continue
            monos = [Monomial(6, g) for g in gens]
            rng.shuffle(monos)
            I = minimal_generators(monos, ambient=6)
            J = minimal_generators(list(reversed(monos)), ambient=6)
            assert I == J
            assert minimal_generators(list(I.gens), ambient=6) == I


class TestRestriction:
    def test_examples(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        assert restriction(I, {1, 2, 3}) == ideal(4, (1, 2), (2, 3))
        assert restriction(I, {1, 2, 3, 4}) == I
        assert restriction(ideal(4, (1, 2)), {3, 4}).is_zero

    def test_out_of_range(self):
        with pytest.raises(InputError):
            restriction(ideal(3, (1, 2)), {4})

    def test_composition(self):
        rng = random.Random(2)
        for _ in range(50):
            gens = random_gens(rng, 7, rng.randint(1, 6))
            if not gens:
                continue
            I = Ideal.from_masks(7, gens)
            u = rng.randrange(1 << 7)
            v = rng.randrange(1 << 7)
            assert restriction(restriction(I, u), v) == restriction(I, u & v)


class TestLocalize:
    def test_path_at_x2(self):
        I = ideal(4, (1, 2), (2, 3), (3, 4))
        I_f, Ibar = localize(I, mono(4, 2))
        assert I_f == ideal(4, (1, 2), (2, 3))
        assert Ibar == ideal(4, (1,), (3,))

    def test_unit_outcome(self):
        I = ideal(2, (1, 2))
        I_f, Ibar = localize(I, mono(2, 1, 2))
        assert Ibar is UNIT_IDEAL
        assert I_f == ideal(2, (1, 2))

    def test_external_variable(self):
        I = ideal(3, (1, 2))
        I_f, Ibar = localize(I, mono(3, 3))
        assert I_f == ideal(3, (1, 2, 3))
        assert Ibar == ideal(3, (1, 2))

    def test_rejects_one(self):
        with pytest.raises(InputError):
            localize(ideal(3, (1, 2)), Monomial(3))

    def test_zero_ideal(self):
        I_f, Ibar = localize(Ideal(3), mono(3, 1))
        assert I_f.is_zero and Ibar.is_zero

    def test_zero_ideal_checks_the_ambient(self):
        with pytest.raises(InputError, match="ambient mismatch: 5 vs 3"):
            localize(Ideal(3), mono(5, 1))

    def test_against_oracle(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(2, 7)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            f = Monomial(n, rng.randint(1, (1 << n) - 1))
            I_f, Ibar = localize(I, f)
            want_f, want_bar = oracle_localize(gens, n, f.mask)
            assert I_f.gen_masks == want_f
            if any(g & ~f.mask == 0 for g in gens):
                assert Ibar is UNIT_IDEAL
            else:
                assert Ibar.gen_masks == want_bar

    def test_two_step_composition(self):
        rng = random.Random(4)
        done = 0
        while done < 40:
            n = rng.randint(3, 7)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            fg = rng.randint(1, (1 << n) - 1)
            f = fg & -fg  # lowest bit
            g = fg ^ f
            if not g:
                continue
            _, bar_fg = localize(I, Monomial(n, fg))
            _, bar_f = localize(I, Monomial(n, f))
            if bar_f is UNIT_IDEAL or bar_fg is UNIT_IDEAL:
                continue
            _, bar_two = localize(bar_f, Monomial(n, g))
            if bar_two is UNIT_IDEAL:
                continue
            assert bar_two == bar_fg
            done += 1


class TestTruncation:
    def test_examples(self):
        assert truncation(ideal(2, (1,)), 2) == ideal(2, (1, 2))
        I = ideal(4, (1, 2), (3, 4))
        assert truncation(I, 2) == I
        # frozen from the enumeration oracle: every degree-3 monomial on 5
        # variables is divisible by one of x1x2, x3x4, x5
        I = ideal(5, (1, 2), (3, 4), (5,))
        got = truncation(I, 3)
        assert got.gen_masks == oracle_truncation(I.gen_masks, 5, 3)
        assert len(got.gens) == 10

    def test_degree_too_large(self):
        with pytest.raises(InputError):
            truncation(ideal(3, (1,)), 4)

    def test_against_oracle_and_idempotence(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            gens = random_gens(rng, n, rng.randint(1, 5))
            if not gens:
                continue
            I = Ideal.from_masks(n, gens)
            d = rng.randint(1, n)
            T = truncation(I, d)
            assert T.gen_masks == oracle_truncation(gens, n, d)
            assert truncation(T, d) == T

    def test_monotone(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(2, 6)
            gi = random_gens(rng, n, rng.randint(1, 4))
            gj = random_gens(rng, n, rng.randint(1, 4))
            if not gi or not gj:
                continue
            I = Ideal.from_masks(n, gi)
            J = ideal_sum(I, Ideal.from_masks(n, gj))  # I inside J
            d = rng.randint(1, n)
            TI, TJ = truncation(I, d), truncation(J, d)
            assert all(TJ.contains_mask(g) for g in TI.gen_masks)


class TestSumIntersection:
    def test_examples(self):
        assert ideal_sum(ideal(2, (1,)), ideal(2, (2,))) == ideal(2, (1,), (2,))
        assert ideal_intersection(ideal(2, (1,)), ideal(2, (2,))) == ideal(2, (1, 2))
        got = ideal_intersection(ideal(4, (1, 2), (2, 3)), ideal(4, (3, 4)))
        assert got == ideal(4, (2, 3, 4))  # frozen from the membership oracle

    def test_against_oracle(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 6)
            gi = random_gens(rng, n, rng.randint(1, 4))
            gj = random_gens(rng, n, rng.randint(1, 4))
            if not gi or not gj:
                continue
            I, J = Ideal.from_masks(n, gi), Ideal.from_masks(n, gj)
            assert ideal_sum(I, J).gen_masks == oracle_sum(gi, gj)
            assert ideal_intersection(I, J).gen_masks == oracle_intersection(gi, gj, n)

    def test_absorption_laws(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 6)
            gi = random_gens(rng, n, rng.randint(1, 4))
            gj = random_gens(rng, n, rng.randint(1, 4))
            if not gi or not gj:
                continue
            I, J = Ideal.from_masks(n, gi), Ideal.from_masks(n, gj)
            assert ideal_intersection(I, ideal_sum(I, J)) == I
            assert ideal_sum(I, ideal_intersection(I, J)) == I

    def test_zero_ideal_operand(self):
        I = ideal(3, (1, 2))
        z = Ideal(3)
        assert ideal_sum(I, z) == I
        assert ideal_intersection(I, z).is_zero


class TestTextFormat:
    def test_round_trip(self):
        I = ideal(8, (3, 4, 7, 8), (1, 2, 5, 6))
        assert parse_ideal(format_ideal(I)) == I

    def test_parse_with_comments_and_blanks(self):
        text = "# a comment\n\nambient 4\nx1*x2\n  x3*x4  # trailing\n"
        assert parse_ideal(text) == ideal(4, (1, 2), (3, 4))

    def test_parse_crlf_and_inner_spaces(self):
        assert parse_ideal("ambient 4\r\nx1*x2\r\nx3 * x4\r\n") == ideal(4, (1, 2), (3, 4))

    def test_zero_ideal_round_trip(self):
        z = Ideal(5)
        assert parse_ideal(format_ideal(z)) == z

    def test_canonical_output(self):
        I = ideal(4, (3, 4), (1, 2))
        assert format_ideal(I) == "ambient 4\nx1*x2\nx3*x4\n"

    def test_parser_minimalizes(self):
        assert parse_ideal("ambient 3\nx1\nx1*x2\n") == ideal(3, (1,))

    @pytest.mark.parametrize(
        "text",
        [
            "x1*x2\n",  # missing header
            "ambient two\nx1\n",
            "ambient 1_0\nx1\n",  # int() would read 10
            "ambient +4\nx1\n",
            "ambient \u0664\nx1\n",  # ARABIC-INDIC DIGIT FOUR
            "ambient 3\ny1\n",
            "ambient 3\nx4\n",
            "ambient 3\nx1*x1\n",  # not squarefree
            "ambient 0\n",
            "ambient 12\nx1_0\n",  # int() would read x10
            "ambient 3\nx 1\n",
            "ambient 3\nx+1\n",
            "ambient 3\nx-1\n",
            "ambient 3\nx\u0661\n",  # ARABIC-INDIC DIGIT ONE
            "ambient 3\nx\uff11\n",  # FULLWIDTH DIGIT ONE
            "ambient 3\nx\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InputError):
            parse_ideal(text)

    def test_round_trip_seeded(self):
        """Seeded ideals up to 64 variables, so indices of two digits too."""
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 64)
            I = Ideal.from_masks(n, random_gens(rng, n, rng.randint(0, 6)))
            assert parse_ideal(format_ideal(I)) == I


PATH3 = ideal(4, (1, 2), (2, 3), (3, 4))

# Each check named in the integer rule, called with a bool where it takes an int.
INT_CHECKS = {
    "ambient": lambda b: Ideal(b),
    "monomial-ambient": lambda b: Monomial(b),
    "variable": lambda b: Monomial.of(3, b),
    "mask": lambda b: Monomial(3, b),
    "truncation": lambda b: truncation(ideal(3, (1,)), b),
    "complex-ambient": lambda b: SimplicialComplex(b),
    "facet": lambda b: SimplicialComplex(3, (b,)),
    "field": lambda b: FieldSpec(b),
    "jobs": lambda b: verify_range(4, 2, jobs=b),
    "chunk-size": lambda b: verify_range(4, 2, chunk_size=b),
    "verify-n": lambda b: verify_range(b, 1),
    "verify-d": lambda b: verify_range(4, b),
    "sweep-n": lambda b: gcd_lemma_sweep(b, 1),
    "sweep-d": lambda b: gcd_lemma_sweep(4, b),
    "search-n": lambda b: open_case_search(b, 1, samples=1),
    "search-d": lambda b: open_case_search(4, b, samples=1),
    "samples": lambda b: open_case_search(4, 2, samples=b),
    "restriction": lambda b: restriction(ideal(3, (1,), (2, 3)), b),
    "restrict-complex": lambda b: restrict_complex(SimplicialComplex(3, (7,)), b),
    "f-n": lambda b: f_bound(b, 3),
    "f-d": lambda b: f_bound(7, b),
    "g-n": lambda b: g_bound(b, 2),
    "g-d": lambda b: g_bound(7, b),
    "theorem-n": lambda b: theorem_bound(b, 2),
    "theorem-d": lambda b: theorem_bound(7, b),
    "faltings-n": lambda b: faltings_bound(b, 2),
    "faltings-bigheight": lambda b: faltings_bound(7, b),
    "nk-k": lambda b: is_Nk_betti(ideal(3, (1, 2), (2, 3)), b),
    "lcm-subgraph-u": lambda b: lcm_induced_subgraph(
        generator_graph(ideal(3, (1, 2), (2, 3))), b, 0),
    "lcm-subgraph-v": lambda b: lcm_induced_subgraph(
        generator_graph(ideal(3, (1, 2), (2, 3))), 0, b),
    "sharp-n": lambda b: sharp_example(b, 3),
    "sharp-d": lambda b: sharp_example(9, b),
    "has-edge-a": lambda b: generator_graph(ideal(3, (1, 2), (2, 3))).has_edge(b, 0),
    "has-edge-b": lambda b: generator_graph(ideal(3, (1, 2), (2, 3))).has_edge(0, b),
}

# Floats where an int is taken, a negative mask as a vertex subset,
# generator indices outside a 3-generator graph, and an n that is not an
# int under symmetry reduction, which compares n with its limit.
NON_INTS = {
    "f-float-n": lambda: f_bound(7.5, 3),
    "nk-float-k": lambda: is_Nk_betti(ideal(3, (1, 2), (2, 3)), 1.5),
    "sharp-floats": lambda: sharp_example(9.0, 3.0),
    "restriction-negative-mask": lambda: restriction(ideal(3, (1,), (2, 3)), -1),
    "restriction-float": lambda: restriction(ideal(3, (1,), (2, 3)), 1.5),
    "has-edge-negative-a": lambda: generator_graph(PATH3).has_edge(-1, 0),
    "has-edge-negative-b": lambda: generator_graph(PATH3).has_edge(0, -1),
    "has-edge-past-the-end": lambda: generator_graph(PATH3).has_edge(5, 0),
    "verify-orbits-str-n": lambda: verify_range("6", 2, symmetry="orbits"),
    "verify-orbits-none-n": lambda: verify_range(None, 2, symmetry="orbits"),
}


class TestIntegerRule:
    """Every int check takes an int that is not a bool (`core._is_int`)."""

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("call", INT_CHECKS.values(), ids=INT_CHECKS.keys())
    def test_bools_are_refused(self, call, flag):
        with pytest.raises(InputError):
            call(flag)

    @pytest.mark.parametrize("call", NON_INTS.values(), ids=NON_INTS.keys())
    def test_non_ints_are_refused(self, call):
        with pytest.raises(InputError):
            call()

    def test_is_int_is_the_only_int_test(self):
        """No module of the package calls isinstance(..., int) outside
        `core._is_int`: every int check goes through that one rule."""
        offenders = []
        for path in sorted(pathlib.Path(monomial_lab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.name == "core.py":
                allowed = {id(node) for fn in tree.body
                           if isinstance(fn, ast.FunctionDef) and fn.name == "_is_int"
                           for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2
                        and id(node) not in allowed):
                    kinds = node.args[1]
                    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                    if any(isinstance(k, ast.Name) and k.id == "int" for k in names):
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


# Every public entry point that takes a field, called with `field`; the path
# ideal is linearly presented and its quotient is S2, so each call reaches
# the field.
FIELD_CALLS = {
    "regularity": lambda field: regularity(PATH3, field),
    "projective-dimension": lambda field: projective_dimension(PATH3, field),
    "betti-table": lambda field: betti_table(PATH3, field),
    "cohomological-dimension": lambda field: cohomological_dimension(PATH3, field),
    "nk-betti": lambda field: is_Nk_betti(PATH3, 2, field),
    "check-theorem1": lambda field: check_theorem1(PATH3, field),
    "check-corollary1": lambda field: check_corollary1(PATH3, field),
    "verify-range": lambda field: verify_range(4, 2, field),
    "open-case-search": lambda field: open_case_search(4, 2, samples=0, field=field),
    "reduced-homology": lambda field: reduced_homology_dims(SimplicialComplex(3, (3, 6)), field),
    "reduced-homology-void": lambda field: reduced_homology_dims(SimplicialComplex(3), field),
}


@pytest.mark.parametrize("field", ["q", 3, None, True])
@pytest.mark.parametrize("call", FIELD_CALLS.values(), ids=FIELD_CALLS.keys())
def test_field_must_be_a_fieldspec(call, field):
    with pytest.raises(InputError, match=f"field must be a FieldSpec, got {field!r}"):
        call(field)


# Every public entry point that takes an ideal, called with `bad` in its
# place; the other arguments are valid.
IDEAL_CALLS = {
    "regularity": lambda bad: regularity(bad),
    "projective-dimension": lambda bad: projective_dimension(bad),
    "betti-table": lambda bad: betti_table(bad),
    "check-theorem1": lambda bad: check_theorem1(bad),
    "check-corollary1": lambda bad: check_corollary1(bad),
    "alexander-dual": lambda bad: alexander_dual(bad),
    "stanley-reisner": lambda bad: stanley_reisner(bad),
    "height-profile": lambda bad: height_profile(bad),
    "is-s2": lambda bad: is_S2(bad),
    "cohomological-dimension": lambda bad: cohomological_dimension(bad),
    "generator-graph": lambda bad: generator_graph(bad),
    "is-n2-graph": lambda bad: is_N2_graph(bad),
    "nk-betti": lambda bad: is_Nk_betti(bad, 2),
    "gcd-witness": lambda bad: gcd_witness(bad, mono(4, 1, 2)),
    "restriction": lambda bad: restriction(bad, 3),
    "localize": lambda bad: localize(bad, mono(4, 1)),
    "truncation": lambda bad: truncation(bad, 2),
    "sum-left": lambda bad: ideal_sum(bad, PATH3),
    "sum-right": lambda bad: ideal_sum(PATH3, bad),
    "intersection-left": lambda bad: ideal_intersection(bad, PATH3),
    "intersection-right": lambda bad: ideal_intersection(PATH3, bad),
    "format": lambda bad: format_ideal(bad),
}


@pytest.mark.parametrize("bad", ["x1", None, UNIT_IDEAL, Monomial.of(4, 1, 2)])
@pytest.mark.parametrize("call", IDEAL_CALLS.values(), ids=IDEAL_CALLS.keys())
def test_ideal_must_be_an_ideal(call, bad):
    with pytest.raises(InputError, match=re.escape(f"ideal must be an Ideal, got {bad!r}")):
        call(bad)


class TestJson:
    def test_ideals_and_monomials_as_generator_strings(self):
        I = ideal(4, (1, 2), (2, 3, 4))
        doc = {"b": I, "a": [mono(4, 1, 3), Ideal(4)], "c": (None, 1.5)}
        assert to_json(doc) == '{"a": ["x1*x3", []], "b": ["x1*x2", "x2*x3*x4"], "c": [null, 1.5]}'

    @pytest.mark.parametrize("obj", [FieldSpec(2), {1, 2}, object(), b"x1", UNIT_IDEAL])
    def test_other_objects_are_refused(self, obj):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            to_json({"x": [obj]})

    def test_to_json_is_the_only_writer(self):
        """No module of the package calls json.dump or json.dumps outside
        `core.to_json`, or imports either name from json."""
        offenders = []
        for path in sorted(pathlib.Path(monomial_lab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.name == "core.py":
                allowed = {id(node) for fn in tree.body
                           if isinstance(fn, ast.FunctionDef) and fn.name == "to_json"
                           for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("dump", "dumps")
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                        and id(node) not in allowed):
                    offenders.append(f"{path.name}:{node.lineno}")
                if (isinstance(node, ast.ImportFrom) and node.module == "json"
                        and any(a.name in ("dump", "dumps") for a in node.names)):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
