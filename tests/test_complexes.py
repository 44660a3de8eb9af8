"""Complexes and the exact homology engine, cross-checked against a plain
Fraction-elimination oracle."""

import math
import os
import random
import subprocess
import sys
import time

import pytest
from oracles import (
    RP2_FACETS,
    CountingMask,
    faces_from_facets,
    faces_from_nonfaces,
    fraction_rank,
    maximalize,
    mod_rank,
    oracle_homology,
    oracle_sr_facets,
    _reference_remap,
    random_gens,
    random_mask,
)

import monomial_lab
from monomial_lab import complexes
from monomial_lab.complexes import (
    GF2,
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    homology_profile,
    reduced_homology_dims,
    restrict_complex,
    stanley_reisner,
)
from monomial_lab.core import (
    CapacityError,
    Ideal,
    InputError,
    Monomial,
    canon_key,
    minimal_generators,
)
from monomial_lab.exact_rank import rank_bareiss, rank_f2_columns, rank_mod_p
from monomial_lab.transversals import minimal_transversals


def ideal(n, *var_tuples):
    return minimal_generators([Monomial.of(n, *vs) for vs in var_tuples], ambient=n)


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(InputError):
            FieldSpec(4)
        with pytest.raises(InputError):
            FieldSpec(1)
        assert FieldSpec(32003).label == "GF(32003)"
        assert RATIONALS.label == "Q"

    @pytest.mark.parametrize("text,p", [("q", None), ("Q", None), ("rationals", None),
                                        ("p:2", 2), ("p:32003", 32003), ("7", 7),
                                        ("qq", None), ("0", None), (" P:7 ", 7)])
    def test_parse(self, text, p):
        assert FieldSpec.parse(text).p == p

    def test_parse_error(self):
        with pytest.raises(InputError):
            FieldSpec.parse("gf4")

    def test_primality_matches_trial_division(self):
        """Below 200,000 the primes are those of a sieve of Eratosthenes."""
        n = 200_000
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for f in range(2, math.isqrt(n) + 1):
            if sieve[f]:
                sieve[f * f::f] = bytes(len(range(f * f, n, f)))
        assert [complexes._is_prime(p) for p in range(n)] == [bool(b) for b in sieve]

    @pytest.mark.parametrize("p", [3_215_031_751, 3_825_123_056_546_413_051,
                                   318_665_857_834_031_151_167_461])
    def test_strong_pseudoprimes_rejected(self, p):
        with pytest.raises(InputError, match="not prime"):
            FieldSpec(p)

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert FieldSpec.parse(f"p:{2**61 - 1}").p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p", [3_317_044_064_679_887_385_961_981, 2**127 - 1])
    def test_over_the_exact_bound_raises(self, p):
        with pytest.raises(InputError, match="decided exactly only below"):
            FieldSpec(p)
        with pytest.raises(InputError, match="bad field spec"):
            FieldSpec.parse(f"p:{p}")

    @pytest.mark.parametrize("p", [3.0, 2.0, "3", True, False])
    def test_characteristic_must_be_an_int(self, p):
        with pytest.raises(InputError, match="must be None or an int"):
            FieldSpec(p)


class TestSimplicialComplex:
    def test_facets_canonicalized(self):
        C = SimplicialComplex.from_vertex_sets(3, [(1,), (1, 2), (3,), (1, 2)])
        assert C.facets == (0b100, 0b011)
        assert C.facet_vertex_sets() == ((3,), (1, 2))

    def test_void_vs_irrelevant(self):
        void = SimplicialComplex(3)
        irr = SimplicialComplex(3, (0,))
        assert void.is_void and not irr.is_void
        assert irr.dim == -1
        with pytest.raises(InputError):
            void.dim

    def test_facets_against_pairwise_oracle(self):
        """Maximal facets of random families with duplicate, nested, empty
        and full facets on 0..20 vertices; a negative or out-of-range facet
        anywhere in the list is rejected."""
        rng = random.Random(37)
        rejected = 0
        for trial in range(600):
            n = rng.randint(0, 20)
            family = [random_mask(rng, n, rng.randint(0, n)) for _ in range(rng.randint(0, 25))]
            for _ in range(rng.randint(0, 8) if family else 0):
                base = rng.choice(family)
                family.append(rng.choice([base, base & random_mask(rng, n, rng.randint(0, n)),
                                          (1 << n) - 1, 0]))
            rng.shuffle(family)
            if rng.random() < 0.15:
                family.insert(rng.randint(0, len(family)),
                              rng.choice([-1, -(1 << n), 1 << n, (1 << n) | 1]))
                with pytest.raises(InputError):
                    SimplicialComplex(n, tuple(family))
                rejected += 1
                continue
            assert SimplicialComplex(n, tuple(family)).facets == maximalize(family), (trial, family)
        assert SimplicialComplex(4).facets == ()
        assert SimplicialComplex(4, (0, 0)).facets == (0,)
        assert SimplicialComplex(0, (0,)).facets == (0,)
        assert rejected > 50

    @pytest.mark.parametrize("ambient,facets", [(3, ("a",)), (3, (1.5,)), (3, (0b11, None)),
                                                ("3", (0b11,)), (65, ())])
    def test_rejects_wrongly_typed_input(self, ambient, facets):
        with pytest.raises(InputError):
            SimplicialComplex(ambient, facets)

    def test_mask_and_count_stays_below_the_all_pairs_scan(self):
        """1,300 facets on 22 vertices, with nested and duplicate ones.  The
        pairwise maximality scan made 1,251,356 mask & operations here; the
        filter on minimal complements must stay under a twentieth of that
        (it makes about 25k)."""
        rng = random.Random(31)
        n = 22
        facets = [random_mask(rng, n, rng.randint(9, 12)) for _ in range(1000)]
        facets += [f & random_mask(rng, n, rng.randint(10, n)) for f in rng.sample(facets, 200)]
        facets += rng.sample(facets, 100)
        rng.shuffle(facets)
        CountingMask.ands = 0
        got = SimplicialComplex(n, tuple(CountingMask(f) for f in facets)).facets
        assert CountingMask.ands <= 1_251_356 // 20
        assert len(got) == 964
        assert got == maximalize(facets)


class TestStanleyReisner:
    def test_examples(self):
        assert stanley_reisner(ideal(2, (1, 2))).facet_vertex_sets() == ((1,), (2,))
        assert stanley_reisner(Ideal(3)).facet_vertex_sets() == ((1, 2, 3),)
        tri = stanley_reisner(ideal(3, (1, 2), (2, 3), (1, 3)))
        assert tri.facet_vertex_sets() == ((1,), (2,), (3,))

    def test_against_subset_scan(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 7)
            gens = random_gens(rng, n, rng.randint(0, 5))
            I = Ideal.from_masks(n, gens)
            assert stanley_reisner(I).facets == oracle_sr_facets(gens, n)


class TestRestrictComplex:
    def test_examples(self):
        full = SimplicialComplex.from_vertex_sets(3, [(1, 2, 3)])
        assert restrict_complex(full, {1, 2}).facet_vertex_sets() == ((1, 2),)
        pts = SimplicialComplex.from_vertex_sets(3, [(1,), (2,), (3,)])
        assert restrict_complex(pts, set()).facets == (0,)
        void = SimplicialComplex(3)
        assert restrict_complex(void, {1}).is_void

    def test_outside_ambient(self):
        C = SimplicialComplex.from_vertex_sets(3, [(1, 2, 3)])
        with pytest.raises(InputError, match="outside ambient"):
            restrict_complex(C, 0b1001)

    def test_matches_face_filter(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 6)
            gens = random_gens(rng, n, rng.randint(0, 4))
            C = stanley_reisner(Ideal.from_masks(n, gens))
            sigma = rng.randrange(1 << n)
            R = restrict_complex(C, sigma)
            want = sorted(f for f in faces_from_facets(C.facets, n) if f & ~sigma == 0)
            assert sorted(faces_from_facets(R.facets, n)) == want


class TestHomology:
    def test_capacity_limit(self):
        """Above 26 vertices both face-bitmap builders refuse before building
        anything: from facets (a complex) and from minimal non-faces (a
        local complex of the Betti scans)."""
        with pytest.raises(CapacityError, match="27 vertices exceeds"):
            reduced_homology_dims(SimplicialComplex(27, ((1 << 27) - 1,)))
        with pytest.raises(CapacityError, match="27 vertices exceeds"):
            homology_profile(27, (1,), GF2)

    def test_circle(self):
        tri = SimplicialComplex.from_vertex_sets(3, [(1, 2), (2, 3), (1, 3)])
        assert reduced_homology_dims(tri, RATIONALS) == {-1: 0, 0: 0, 1: 1}

    def test_two_points(self):
        two = SimplicialComplex.from_vertex_sets(2, [(1,), (2,)])
        assert reduced_homology_dims(two, RATIONALS) == {-1: 0, 0: 1}

    def test_irrelevant_and_void(self):
        assert reduced_homology_dims(SimplicialComplex(2, (0,)), RATIONALS) == {-1: 1}
        assert reduced_homology_dims(SimplicialComplex(2), RATIONALS) == {}

    def test_projective_plane_characteristics(self):
        rp2 = SimplicialComplex.from_vertex_sets(6, RP2_FACETS)
        over_q = reduced_homology_dims(rp2, RATIONALS)
        over_2 = reduced_homology_dims(rp2, GF2)
        assert over_q == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert over_2 == {-1: 0, 0: 0, 1: 1, 2: 1}
        # mod-p dims dominate the rational ones
        assert all(over_q[k] <= over_2[k] for k in over_q)

    def test_sphere(self):
        # boundary of the tetrahedron
        sphere = SimplicialComplex.from_vertex_sets(
            4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )
        assert reduced_homology_dims(sphere, RATIONALS) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_cone_has_no_homology(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 6)
            facets = []
            for _ in range(rng.randint(1, 5)):
                f = {1}
                f.update(rng.sample(range(2, n + 1), rng.randint(0, n - 1)))
                facets.append(tuple(f))
            cone = SimplicialComplex.from_vertex_sets(n, facets)
            dims = reduced_homology_dims(cone, RATIONALS)
            assert all(v == 0 for v in dims.values())

    def test_facet_order_irrelevant(self):
        rng = random.Random(14)
        facets = list(RP2_FACETS)
        rng.shuffle(facets)
        a = reduced_homology_dims(SimplicialComplex.from_vertex_sets(6, facets), GF2)
        b = reduced_homology_dims(SimplicialComplex.from_vertex_sets(6, RP2_FACETS), GF2)
        assert a == b

    def test_against_fraction_oracle(self):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(1, 6)
            count = rng.randint(0, 6)
            facets = [rng.randint(1, (1 << n) - 1) for _ in range(count)] or [0]
            C = SimplicialComplex(n, tuple(facets))
            got = reduced_homology_dims(C, RATIONALS)
            faces = faces_from_facets(C.facets, n)
            want = oracle_homology(faces, n)
            assert {k: v for k, v in got.items()} == want

    def test_two_large_primes_agree_with_rationals(self):
        rng = random.Random(16)
        for _ in range(25):
            n = rng.randint(1, 6)
            facets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 6))]
            C = SimplicialComplex(n, tuple(facets))
            over_q = reduced_homology_dims(C, RATIONALS)
            for p in (32003, 1000003):
                assert reduced_homology_dims(C, FieldSpec(p)) == over_q


# Runs under `python -O`: regularity of two disjoint edges (reg 3, a GF(2)
# hit confirmed over Q as the walk meets it) and of the RP^2 face ideal (reg
# 3 over Q: the GF(2) hit at row 4 is 2-torsion, refused by the
# confirmation), the pd of four disjoint degree-6 monomials (4, found at the
# whole support, where the Taylor cut ends the scan) and the regularity of
# a complete intersection of degrees 2, 3 and 4 (7, at the top row the cut
# leaves), then four skews.  "euler": the Betti
# table over Q with every nonzero rational rank one too small; no dimension
# goes negative and the ones certified zero over GF(2) are not recomputed, so
# only the Euler characteristic of the full profile sees it.  "negative": a
# rational rank too large for the face count, in the reg scan.  "banded": a
# GF(32003) rank above its matrix shape, in the banded reg scan.  "stored":
# two disjoint filled triangles, whose relative complex (the second triangle,
# off the star of vertex 0) has its top map reduced by a banded request and
# stored; then a full profile with every GF(32003) rank full, which fits each
# matrix shape but not the stored rank above it.  "cut": the rational rank
# of "negative" in the pd scan of the disjoint monomials, on the one sigma
# the cut leaves.
FORCED_MISMATCH = """
import sys
from monomial_lab import complexes
from monomial_lab.betti import betti_table, projective_dimension, regularity
from monomial_lab.complexes import FieldSpec
from monomial_lab.core import Ideal, InternalCheckError
from monomial_lab.transversals import minimal_transversals

I = Ideal.from_masks(4, (0b0011, 0b1100))
print("optimize", sys.flags.optimize, "reg", regularity(I))
facets = [sum(1 << (v - 1) for v in f) for f in %r]
rp2 = Ideal.from_masks(6, minimal_transversals([0b111111 ^ f for f in facets]))
print("rp2 reg", regularity(rp2))
disjoint = Ideal.from_masks(24, [0b111111 << 6 * j for j in range(4)])
print("disjoint pd", projective_dimension(disjoint))
print("ci reg", regularity(Ideal.from_masks(9, (0b11, 0b11100, 0b111100000))))
exact_rank_q = complexes._exact_rank_q
cases = {
    "euler": ("_exact_rank_q", lambda m, nf, s: max(exact_rank_q(m, nf, s) - 1, 0),
              lambda: betti_table(I)),
    "negative": ("_exact_rank_q", lambda m, nf, s: 10**6, lambda: regularity(I)),
    "banded": ("rank_mod_p", lambda cols, p: range(len(cols) + 1),
               lambda: regularity(I, FieldSpec(32003))),
    "stored": ("rank_mod_p",
               lambda cols, p: range(min(len(cols), len({r for c in cols for r in c}))),
               lambda: complexes.homology_profile(6, triangles, FieldSpec(32003))),
    "cut": ("_exact_rank_q", lambda m, nf, s: 10**6, lambda: projective_dimension(disjoint)),
}
triangles = tuple(1 << a | 1 << b for b in range(3, 6) for a in range(3))
for label, (name, fake, call) in cases.items():
    complexes.clear_caches()
    complexes._boundary_ranks(6, triangles, 32003, 3, 3)
    orig = getattr(complexes, name)
    setattr(complexes, name, fake)
    try:
        call()
        print(label, "unchecked")
    except InternalCheckError as exc:
        print(label, "raised", type(exc).__name__, str(exc).split()[0])
    finally:
        setattr(complexes, name, orig)
""" % (RP2_FACETS,)


class TestChecksSurviveOptimize:
    def test_forced_mismatches_raise_under_O(self):
        src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", FORCED_MISMATCH],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:9] == [
            "optimize 1 reg 3",
            "rp2 reg 3",
            "disjoint pd 4",
            "ci reg 7",
            "euler raised InternalCheckError Euler",
            "negative raised InternalCheckError negative",
            "banded raised InternalCheckError rank",
            "stored raised InternalCheckError negative",
            "cut raised InternalCheckError negative",
        ]


def sparse_columns(rows):
    """The columns of a dense row-list matrix as {row: entry} maps."""
    ncols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


class TestRankKernels:
    def test_known_singular_matrix(self):
        rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert len(rank_bareiss(sparse_columns(rows))) == 2
        assert len(rank_mod_p(sparse_columns(rows), 5)) == 2

    def test_random_against_fraction_elimination(self):
        rng = random.Random(17)
        for _ in range(80):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            want = fraction_rank(rows)
            assert len(rank_bareiss(sparse_columns(rows))) == want
            big = 1000003
            assert len(rank_mod_p(sparse_columns(rows), big)) == mod_rank(rows, big)
            cols = []
            for j in range(nc):
                col = 0
                for i in range(nr):
                    if rows[i][j] % 2:
                        col |= 1 << i
                cols.append(col)
            assert len(rank_f2_columns(cols)) == mod_rank(rows, 2)

    def test_f2_rank_bounds_rational_rank(self):
        rng = random.Random(18)
        for _ in range(60):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
            cols = []
            for j in range(nc):
                col = 0
                for i in range(nr):
                    if rows[i][j] % 2:
                        col |= 1 << i
                cols.append(col)
            assert len(rank_f2_columns(cols)) <= fraction_rank(rows)


def bit_columns(rows):
    """The columns of a dense row-list matrix, reduced mod 2, as bitmasks."""
    ncols = len(rows[0]) if rows else 0
    return [sum(1 << i for i, row in enumerate(rows) if row[j] % 2) for j in range(ncols)]


def dense_rows(columns, nrows):
    """Sparse {row: entry} columns as a dense row-list matrix."""
    return [[col.get(i, 0) for col in columns] for i in range(nrows)]


def minimal_nonfaces(faces, m):
    face_set = set(faces)
    return tuple(sorted(
        (x for x in range(1 << m) if x not in face_set
         and all(x ^ (1 << b) in face_set for b in range(m) if x >> b & 1)),
        key=canon_key))


def local_complexes(rng, count):
    """Seeded (m, minimal non-faces) with m <= 8: the 6-vertex RP^2, then
    random complexes, every third one a cone (its top vertex lies in no
    non-face)."""
    rp2 = SimplicialComplex.from_vertex_sets(6, RP2_FACETS)
    out = [(6, minimal_nonfaces(faces_from_facets(rp2.facets, 6), 6))]
    for k in range(count):
        m = rng.randint(1, 8)
        free = m - 1 if k % 3 == 0 and m > 1 else m
        nonfaces = random_gens(rng, free, rng.randint(1, free + 2),
                               dmin=min(free, 1 if k % 4 == 1 else 2), dmax=min(free, 4))
        out.append((m, tuple(sorted(nonfaces, key=canon_key))))
    return out


def edge_case_complexes(rng, count):
    """(m, minimal non-faces) for the edge cases of the reduction relative
    to a vertex star: m = 0 (the irrelevant and the void complex), and for
    m = 1..6 the void complex, every vertex a non-face and the boundary of
    the simplex; then seeded complexes with non-faces of mixed degrees
    (some of them vertices), every other one a cone over its top vertex."""
    out = [(0, ()), (0, (0,))]
    for m in range(1, 7):
        out += [(m, (0,)), (m, tuple(1 << v for v in range(m))), (m, ((1 << m) - 1,))]
    for k in range(count):
        m = rng.randint(2, 8)
        free = m - 1 if k % 2 else m
        nonfaces = random_gens(rng, free, rng.randint(1, free + 2), dmin=1, dmax=min(free, 5))
        out.append((m, tuple(sorted(nonfaces, key=canon_key))))
    return out


class TestRelativeComplex:
    def test_edge_cases_against_oracle(self):
        """homology_profile and reduced_homology_dims equal the oracle's
        homology of the whole complex over Q, GF(2), GF(3) and GF(32003)."""
        rng = random.Random(41)
        cones = 0
        for m, nonfaces in edge_case_complexes(rng, 60):
            faces = faces_from_nonfaces(nonfaces, m)
            cone = m > 0 and 0 not in nonfaces and not any(g >> (m - 1) & 1 for g in nonfaces)
            cones += cone
            for p in (None, 2, 3, 32003):
                complexes.clear_caches()
                want = oracle_homology(faces, m, p)
                got = homology_profile(m, nonfaces, FieldSpec(p))
                assert len(got) == m + 1
                assert {q: got[q + 1] for q in want} == want, (m, nonfaces, p)
                assert sum(got) == sum(want.values())
                if cone:
                    assert not any(got)
                complexes.clear_caches()
                C = SimplicialComplex(m, tuple(faces))
                assert reduced_homology_dims(C, FieldSpec(p)) == want, (m, nonfaces, p)
        assert cones >= 25, cones


class TestSparseElimination:
    def test_profiles_against_oracle(self):
        rng = random.Random(31)
        for m, nonfaces in local_complexes(rng, 45):
            faces = faces_from_nonfaces(nonfaces, m)
            cone = not any(g >> (m - 1) & 1 for g in nonfaces)
            for p in (None, 2, 3, 32003):
                got = homology_profile(m, nonfaces, FieldSpec(p))
                want = oracle_homology(faces, m, p)
                assert {q: got[q + 1] for q in want} == want, (m, nonfaces, p)
                assert sum(got) == sum(want.values())
                if cone:
                    assert not any(got)

    def test_rp2_torsion_separates_fields(self):
        m, nonfaces = local_complexes(random.Random(0), 0)[0]
        assert homology_profile(m, nonfaces, GF2) == (0, 0, 1, 1, 0, 0, 0)
        for p in (None, 3, 32003):
            assert homology_profile(m, nonfaces, FieldSpec(p)) == (0,) * 7

    def test_cleared_ranks_match_uncleared(self):
        """The engine reduces the relative complex of one vertex star: its
        basis is the faces of the complex minus st(v) for the vertex v with
        {v} a face that leaves the fewest (ties to the lowest v), or every
        face when no vertex is one.  The ranks of a full reduction, of
        seeded bands reduced from the top of the band down with clearing,
        and of a full request that completes a band all equal the ranks of
        the whole relative boundary maps."""
        rng = random.Random(32)
        relative = 0
        for m, nonfaces in local_complexes(rng, 45):
            faces = set(faces_from_nonfaces(nonfaces, m))
            stars = {v: {f for f in faces if f | 1 << v in faces}
                     for v in range(m) if 1 << v in faces}
            if stars:
                v = min(stars, key=lambda v: (len(faces - stars[v]), v))
                basis = faces - stars[v]
                relative += len(basis) < len(faces)
            else:
                basis = faces
            groups = [sorted(f for f in basis if f.bit_count() == s) for s in range(m + 1)]
            assert complexes._band_faces(m, nonfaces, 0, m) == groups
            # the relative boundary: a facet in the star is not a row
            dense = [None]
            for s in range(1, m + 1):
                index = {f: i for i, f in enumerate(groups[s - 1])}
                rows = [[0] * len(groups[s]) for _ in groups[s - 1]]
                for j, face in enumerate(groups[s]):
                    for t, b in enumerate(b for b in range(m) if face >> b & 1):
                        if face ^ 1 << b in index:
                            rows[index[face ^ 1 << b]][j] = (-1) ** t
                cols = complexes._boundary_rows_signed(groups[s - 1], groups[s])
                assert dense_rows(cols, len(groups[s - 1])) == rows
                assert complexes._boundary_columns_f2(groups[s - 1], groups[s]) == [
                    sum(1 << i for i, row in enumerate(rows) if row[j] % 2)
                    for j in range(len(groups[s]))]
                dense.append(rows)
            for p in (2, 3, 32003):
                uncleared = [0] * (m + 2)
                for s in range(1, m + 1):
                    cols = sparse_columns(dense[s])
                    if p == 2:
                        full = rank_f2_columns(bit_columns(dense[s]))
                    else:
                        full = rank_mod_p(cols, p)
                    uncleared[s] = len(full)
                    assert uncleared[s] == mod_rank(dense[s], p)
                complexes.clear_caches()
                assert complexes._boundary_ranks(m, nonfaces, p, 1, m)[1] == tuple(uncleared)
                for _ in range(3):
                    complexes.clear_caches()
                    lo = rng.randint(1, m)
                    hi = rng.randint(lo, m)
                    counts, ranks, _ = complexes._boundary_ranks(m, nonfaces, p, lo, hi)
                    assert ranks[lo:hi + 1] == tuple(uncleared[lo:hi + 1])
                    # only the sizes lo-1..hi are listed and counted
                    assert counts == tuple(len(g) if lo - 1 <= s <= hi else None
                                           for s, g in enumerate(groups))
                    assert complexes._boundary_ranks(m, nonfaces, p, 1, m)[1] == tuple(uncleared)
            # over Q, the pivot rows of the map above clear the map below too
            pivots = ()
            for s in range(m, 0, -1):
                cols = complexes._boundary_rows_signed(groups[s - 1], groups[s])
                full = rank_bareiss(cols)
                kept = [c for i, c in enumerate(cols) if i not in pivots]
                assert len(rank_bareiss(kept)) == len(full)
                assert len(full) == fraction_rank(dense[s])
                pivots = full
        assert relative >= 30, relative

    def test_size_bands(self):
        """The band masks mark exactly the subset indices with lo..hi bits
        set, and masks are cached only up to the size limit."""
        for m in range(9):
            for lo in range(-1, m + 2):
                for hi in range(lo - 1, m + 2):
                    want = sum(1 << x for x in range(1 << m) if lo <= x.bit_count() <= hi)
                    assert complexes._size_band(m, lo, hi) == want, (m, lo, hi)
        m = complexes._CACHED_MASK_VERTICES + 1
        band = complexes._size_band(m, 3, 5)
        assert band.bit_count() == sum(math.comb(m, s) for s in (3, 4, 5))
        assert complexes._AT_MOST and all(key[0] < m for key in complexes._AT_MOST)

    def test_bit_patterns_cached_up_to_limit(self):
        """The vertex-bit patterns mark the subset indices with the bit unset,
        and are cached only up to the size limit, as the size masks are."""
        for m in range(7):
            for b, (pat, step) in enumerate(complexes._bit_patterns(m)):
                assert step == 1 << b
                assert pat == sum(1 << x for x in range(1 << m) if not x >> b & 1)
        m = complexes._CACHED_MASK_VERTICES + 1
        assert len(complexes._bit_patterns(m)) == m
        assert complexes._PATTERNS and max(complexes._PATTERNS) < m

    def test_band_faces_builds_uncached_patterns_once(self, monkeypatch):
        """Above the cache limit each `_band_faces` call builds the vertex-bit
        patterns once and shares them between the face bitmap and the
        relative complex."""
        m = complexes._CACHED_MASK_VERTICES + 1
        calls = []
        build = complexes._bit_patterns
        monkeypatch.setattr(complexes, "_bit_patterns", lambda k: calls.append(k) or build(k))
        assert len(complexes._band_faces(m, (0b11, 0b1100, 1 << (m - 1) | 1), 1, 2)) == m + 1
        assert calls == [m]

    def test_kernels_on_dependent_columns(self):
        rng = random.Random(33)
        for _ in range(150):
            nr = rng.randint(1, 9)
            cols = [[rng.randint(-40, 40) if rng.random() < 0.6 else 0 for _ in range(nr)]
                    for _ in range(rng.randint(1, 6))]
            # integer combinations of earlier columns and a zero column reduce to zero
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randint(-6, 6), rng.randint(-6, 6)
                x, y = rng.choice(cols), rng.choice(cols)
                cols.append([a * u + b * v for u, v in zip(x, y)])
            cols.append([0] * nr)
            rng.shuffle(cols)
            rows = [[c[i] for c in cols] for i in range(nr)]
            sparse = sparse_columns(rows)
            pivots = rank_bareiss(sparse)
            assert len(pivots) == fraction_rank(rows)
            assert set(pivots) <= set(range(nr))
            for p in (2, 3, 7, 32003):
                assert len(rank_mod_p(sparse, p)) == mod_rank(rows, p)
            assert len(rank_f2_columns(bit_columns(rows))) == mod_rank(rows, 2)
            assert sparse == sparse_columns(rows)  # inputs are left as they were


def seeded_complexes(rng, count):
    """Seeded complexes on n <= 10 vertices: void, irrelevant, full
    simplices, RP^2 (also with an unused vertex), then random complexes,
    every third one a cone over its lowest used vertex."""
    out = [SimplicialComplex(4), SimplicialComplex(4, (0,)), SimplicialComplex(1, (1,)),
           SimplicialComplex(7, (0b1111111,)), SimplicialComplex(10, (0b1110111101,)),
           SimplicialComplex.from_vertex_sets(6, RP2_FACETS),
           SimplicialComplex.from_vertex_sets(7, [tuple(v + (v > 3) for v in f)
                                                  for f in RP2_FACETS])]
    for k in range(count):
        n = rng.randint(1, 10)
        facets = [random_mask(rng, n, rng.randint(1, min(n, 4)))
                  for _ in range(rng.randint(1, 7))]
        if k % 3 == 0:
            verts = 0
            for f in facets:
                verts |= f
            facets = [f | verts & -verts for f in facets]
        out.append(SimplicialComplex(n, tuple(facets)))
    return out


def local_facets(C):
    """(m, facets) of C relabelled onto its m used vertices."""
    verts = 0
    for f in C.facets:
        verts |= f
    return complexes._remap(verts, C.facets)


def profile_calls(monkeypatch):
    """Record the (m, non-faces) pairs handed to `homology_profile`."""
    calls = []
    profile = complexes.homology_profile

    def spy(m, nonfaces, field):
        calls.append((m, nonfaces))
        return profile(m, nonfaces, field)

    monkeypatch.setattr(complexes, "homology_profile", spy)
    return calls


class TestMinimalNonfaces:
    """`reduced_homology_dims` reads the minimal non-faces off the face
    bitmap in one closure pass; checked against the subset-scan oracle."""

    def test_against_oracles(self, monkeypatch):
        calls = profile_calls(monkeypatch)
        rng = random.Random(41)
        for C in seeded_complexes(rng, 150):
            n = C.ambient
            faces = faces_from_facets(C.facets, n)
            m, local = local_facets(C)
            apexes = (1 << m) - 1
            for f in local:
                apexes &= f
            for p in (None, 2, 3):
                del calls[:]
                got = reduced_homology_dims(C, FieldSpec(p))
                assert got == oracle_homology(faces, n, p), (C, p)
                if C.is_void:
                    assert calls == []
                    continue
                assert calls == [(m, minimal_nonfaces(faces_from_facets(local, m), m))]
                if apexes:  # a cone
                    assert not any(got.values())

    def test_canonical_order_reaches_profile_cache(self):
        rng = random.Random(42)
        for C in seeded_complexes(rng, 40):
            complexes.clear_caches()
            reduced_homology_dims(C, GF2)
            for m, nonfaces, _ in complexes._PROFILES:
                assert list(nonfaces) == sorted(nonfaces, key=canon_key)
                assert len(set(nonfaces)) == len(nonfaces)

    def test_18_vertices_against_duality(self, monkeypatch):
        """Minimal non-faces are the minimal transversals of the facet
        complements; seeded 18-vertex complex with 54 facets of size 4."""
        calls = profile_calls(monkeypatch)
        m = 18
        rng = random.Random(5)
        facets = tuple(sum(1 << v for v in rng.sample(range(m), 4)) for _ in range(3 * m))
        C = SimplicialComplex(m, facets)
        k, local = local_facets(C)
        full = (1 << k) - 1
        nonfaces = minimal_transversals([full ^ f for f in local])
        for field in (GF2, RATIONALS):
            got = reduced_homology_dims(C, field)
            assert calls[-1] == (k, nonfaces)
            want = homology_profile(k, nonfaces, field)
            assert got == {q: want[q + 1] for q in range(-1, C.dim + 1)}
        assert got == {-1: 0, 0: 0, 1: 1, 2: 19, 3: 0}


class TestRemap:
    def test_matches_reference_relabelling(self):
        """The bit-extract table relabels like the vertex-by-vertex
        reference, on supports anywhere in 64 bits, with every byte of
        sigma empty, partly or fully set."""
        rng = random.Random(71)
        for trial in range(400):
            width = rng.choice((8, 16, 24, 64))
            sigma = 0
            for b in rng.sample(range(width), rng.randint(0, min(width, 20))):
                sigma |= 1 << b
            if trial % 5 == 0:
                sigma |= 0xFF << 8 * rng.randrange(width // 8)
            bits = [1 << b for b in range(width) if sigma >> b & 1]
            masks = [sum(b for b in bits if rng.random() < 0.5) for _ in range(rng.randint(0, 6))]
            assert complexes._remap(sigma, masks) == _reference_remap(sigma, masks)
