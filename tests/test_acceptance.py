"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them inline).

Two assertions are expected to fail and are left failing deliberately:

* criterion 4 at the (n, d) = (5, 2) run: the 5-cycle edge ideal is
  linearly presented with regularity 3 > max(2, f(5,2)) = 2 (the classical
  codim-3 Gorenstein pentagon; see test_harness.py's pentagon test, which
  freezes the finding), so "zero violations" is mathematically unattainable
  there;
* criterion 9's second step inequality on the n - j = d boundary (see
  test_bounds.py's boundary test for the exact characterization).

Everything else passes.  The README's verification notes summarize this.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest
from oracles import random_gens

import monomial_lab
from monomial_lab.betti import projective_dimension, regularity
from monomial_lab.bounds import f_bound, g_bound, sharp_example, theorem_bound
from monomial_lab.complexes import (
    GF2,
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    reduced_homology_dims,
)
from monomial_lab.core import Ideal, Monomial, minimal_generators, truncation
from monomial_lab.duality import alexander_dual
from monomial_lab.harness import (
    degree_monomial_masks,
    enumerate_pure_ideals,
    gcd_lemma_sweep,
    remark_example,
    verify_range,
)
from monomial_lab.linearity import is_N2_graph, is_Nk_betti, n2_verdict_masks, nk_betti_masks

GF32003 = FieldSpec(32003)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_paper_table_reproduction():
    t0 = time.monotonic()
    src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "monomial_lab.cli", "--json", "bound",
         "--d", "5", "--table", "--n-max", "15"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    elapsed = time.monotonic() - t0
    doc = json.loads(proc.stdout)
    ok = (
        proc.returncode == 0
        and doc["n"] == list(range(5, 16))
        and doc["f"] == [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11]
        and doc["g"] == [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11]
        and elapsed < 1.0
    )
    assert report("1 d=5 bound table via CLI", ok, f"{elapsed:.2f}s")


def test_criterion_02_builtin_counterexample():
    t0 = time.monotonic()
    I, f, g = remark_example()
    reg_ok = regularity(I, RATIONALS) == 4
    table_linear = all(j == i + 4 for (i, j) in
                       __import__("monomial_lab.betti", fromlist=["betti_table"])
                       .betti_table(I, RATIONALS).entries)
    T = truncation(minimal_generators(list(I.gens) + [g], ambient=8), 4)
    graph_fails = not is_N2_graph(T)[0]
    betti_fails = not is_Nk_betti(T, 2, RATIONALS)
    elapsed = time.monotonic() - t0
    ok = reg_ok and table_linear and graph_fails and betti_fails and elapsed < 5.0
    assert report(
        "2 built-in 8-variable counterexample", ok,
        f"reg4={reg_ok} linear={table_linear} graph-fail={graph_fails} "
        f"betti-fail={betti_fails} {elapsed:.2f}s",
    )


def test_criterion_03_sharpness_odd_degree():
    t0 = time.monotonic()
    cases = [(n, 3) for n in range(3, 13)] + [(n, 5) for n in range(5, 14)]
    bad = []
    for n, d in cases:
        I = sharp_example(n, d, verify=False)
        if not is_N2_graph(I)[0] or regularity(I, RATIONALS) != f_bound(n, d):
            bad.append((n, d))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    assert report("3 sharp examples, d=3 and d=5", ok,
                  f"{len(cases)} cases, {elapsed:.1f}s" + (f" bad={bad}" if bad else ""))


def test_criterion_04_exhaustive_bound_runs():
    t0 = time.monotonic()
    runs = [(3, 2), (4, 2), (5, 2), (6, 2), (5, 3)]
    failures = []
    for n, d in runs:
        s = verify_range(n, d, jobs=2)
        if s.violations or s.max_reg > theorem_bound(n, d):
            failures.append((n, d, len(s.violations), s.max_reg))
        if (n, d) == (4, 2) and s.max_reg != 2:
            failures.append((n, d, "max_reg != 2"))
    det = verify_range(4, 2, chunk_size=16).to_json()
    det_ok = all(
        verify_range(4, 2, jobs=j, chunk_size=16).to_json() == det for j in (2, 3)
    )
    elapsed = time.monotonic() - t0
    ok = not failures and det_ok and elapsed < 600.0
    assert report(
        "4 exhaustive bound verification", ok,
        f"determinism={det_ok} {elapsed:.1f}s"
        + (f" violations at {failures}" if failures else ""),
    ), (
        "the (5,2) run finds the 12 labelings of the 5-cycle edge ideal: "
        "linearly presented with reg 3 > max(2, f(5,2)) = 2; "
        "see the decisions ledger and README verification notes"
    )


def test_criterion_05_d_plus_one_variables():
    t0 = time.monotonic()
    bad = []
    for d in (2, 3, 4):
        for I in enumerate_pure_ideals(d + 1, d):
            if regularity(I, RATIONALS) != d:
                bad.append((d, str(I)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    assert report("5 degree-d ideals in d+1 variables have reg d", ok,
                  f"{elapsed:.1f}s" + (f" bad={bad[:3]}" if bad else ""))


def test_criterion_06_criterion_equivalence():
    t0 = time.monotonic()
    mismatches = []
    fields = (RATIONALS, GF2, GF32003)
    for n, d in [(3, 2), (4, 2), (5, 2), (6, 2), (5, 3)]:
        pool = degree_monomial_masks(n, d)
        for subset in range(1, 1 << len(pool)):
            gens = tuple(pool[i] for i in range(len(pool)) if subset >> i & 1)
            want = n2_verdict_masks(gens, d)[0]
            for field in fields:
                if nk_betti_masks(gens, d, 2, field) != want:
                    mismatches.append((n, d, subset, field.label))
    elapsed = time.monotonic() - t0
    ok = not mismatches
    assert report("6 graph and Betti criteria agree over Q, GF(2), GF(32003)",
                  ok, f"{elapsed:.1f}s" + (f" first={mismatches[:2]}" if mismatches else ""))


def test_criterion_07_duality_identities():
    t0 = time.monotonic()
    bad_involution = []
    bad_terai = []

    def check(I):
        D = alexander_dual(I)
        if alexander_dual(D) != I:
            bad_involution.append(str(I))
        if projective_dimension(I, RATIONALS) != regularity(D, RATIONALS):
            bad_terai.append(str(I))

    for n in range(1, 6):
        for d in range(1, n + 1):
            pool = degree_monomial_masks(n, d)
            for subset in range(1, 1 << len(pool)):
                I = Ideal.from_masks(
                    n, tuple(pool[i] for i in range(len(pool)) if subset >> i & 1)
                )
                check(I)
                check(alexander_dual(I))  # dual closure: mixed degrees too

    rng = random.Random(77)
    done = 0
    while done < 500:
        n = rng.randint(2, 8)
        gens = random_gens(rng, n, rng.randint(1, 7))
        if not gens:
            continue
        check(Ideal.from_masks(n, gens))
        done += 1
    elapsed = time.monotonic() - t0
    ok = not bad_involution and not bad_terai
    assert report("7 dual involution and pd/dual-reg identity", ok,
                  f"{elapsed:.1f}s")


def test_criterion_08_gcd_witness_sweeps():
    t0 = time.monotonic()
    bad = []
    for n, d in [(4, 2), (5, 2), (5, 3)]:
        r = gcd_lemma_sweep(n, d)
        if r.violations:
            bad.append((n, d, len(r.violations)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 900.0
    assert report("8 gcd witness sweeps", ok,
                  f"{elapsed:.1f}s" + (f" bad={bad}" if bad else ""))


def test_criterion_09_inequality_lemmas():
    t0 = time.monotonic()
    sandwich_bad = []
    step_bad = []
    for d in range(2, 13):
        for n in range(d + 1, 201):
            f, g = f_bound(n, d), g_bound(n, d)
            if not g - 1 <= f <= g:
                sandwich_bad.append((n, d))
            for j in range(1, (d + 1) // 2 + 1):
                if n - j > d and not f_bound(n - j, d) + j - 1 <= f:
                    step_bad.append((n, d, j, "step-i"))
            for j in range(1, d + 2):
                if not f_bound(max(n - j, 0), d) + j - 2 <= f:
                    step_bad.append((n, d, j, "step-ii"))

    rng = random.Random(99)
    ses_bad = 0
    from monomial_lab.core import ideal_intersection, ideal_sum

    done = 0
    while done < 500:
        n = rng.randint(2, 7)
        gi = random_gens(rng, n, rng.randint(1, 5))
        gj = random_gens(rng, n, rng.randint(1, 5))
        if not gi or not gj:
            continue
        J, K = Ideal.from_masks(n, gi), Ideal.from_masks(n, gj)
        meet = ideal_intersection(J, K)
        if meet.is_zero:
            continue
        rj, rk = regularity(J), regularity(K)
        rm, rs = regularity(meet), regularity(ideal_sum(J, K))
        if rm > max(rj, rk, rs + 1) or rs > max(rj, rk, rm - 1):
            ses_bad += 1
        done += 1

    var_bad = 0
    done = 0
    import itertools as it

    while done < 500:
        n = rng.randint(2, 7)
        gi = random_gens(rng, n, rng.randint(1, 4))
        if not gi:
            continue
        I = Ideal.from_masks(n, gi)
        g = Monomial(n, rng.randint(1, (1 << n) - 1))
        if I.contains(g):
            continue
        lhs = regularity(ideal_sum(I, Ideal(n, (g,))))
        best = 0
        for size in range(1, g.degree + 1):
            for combo in it.combinations(g.vars, size):
                sub = minimal_generators(
                    list(I.gens) + [Monomial.of(n, v) for v in combo], ambient=n
                )
                best = max(best, regularity(sub) + size - 1)
        if lhs > best:
            var_bad += 1
        done += 1

    elapsed = time.monotonic() - t0
    ok = not sandwich_bad and not step_bad and ses_bad == 0 and var_bad == 0
    assert report(
        "9 bound-function and regularity inequalities", ok,
        f"{elapsed:.1f}s sandwich_bad={len(sandwich_bad)} step_bad={len(step_bad)} "
        f"ses_bad={ses_bad} var_bad={var_bad}",
    ), (
        "the second step inequality fails on the n-j = d boundary "
        "(first instance: d=2, n=5, j=3 gives f(2,2)+1 = 3 > f(5,2) = 2); "
        "see the decisions ledger and README verification notes"
    )


def test_criterion_10_characteristic_sensitivity():
    t0 = time.monotonic()
    rp2 = SimplicialComplex.from_vertex_sets(6, [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])
    over_q = reduced_homology_dims(rp2, RATIONALS)
    over_2 = reduced_homology_dims(rp2, GF2)
    elapsed = time.monotonic() - t0
    ok = over_q[1] == 0 and over_2[1] == 1 and elapsed < 1.0
    assert report("10 projective-plane characteristic sensitivity", ok,
                  f"H1(Q)={over_q[1]} H1(GF2)={over_2[1]} {elapsed:.2f}s")
