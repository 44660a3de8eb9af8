"""Brute-force reference implementations, independent of the package's
algorithms: membership enumeration over all 2^n squarefree monomials,
hitting sets by subset scan, homology by plain fraction Gaussian
elimination.  Used to compute and freeze expected values."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# minimal 6-vertex triangulation of the real projective plane: 10 facets,
# every edge in exactly two triangles, Euler characteristic 1
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def popcount(x: int) -> int:
    return x.bit_count()


def members(gens, n):
    """All squarefree monomials (masks) lying in the ideal."""
    return [m for m in range(1 << n) if any(g & ~m == 0 for g in gens)]


def minimalize(masks):
    out = []
    for m in sorted(set(masks), key=lambda x: (popcount(x), x)):
        if not any(o & ~m == 0 for o in out):
            out.append(m)
    return tuple(out)


def oracle_localize(gens, n, f):
    mem = [m for m in members(gens, n) if f & ~m == 0]
    I_f = minimalize(mem)
    Ibar = minimalize(m & ~f for m in mem)
    return I_f, Ibar


def oracle_truncation(gens, n, d):
    return tuple(sorted((m for m in members(gens, n) if popcount(m) == d),
                        key=lambda x: (popcount(x), x)))


def oracle_intersection(gens_i, gens_j, n):
    mi = set(members(gens_i, n))
    return minimalize(m for m in members(gens_j, n) if m in mi)


def oracle_sum(gens_i, gens_j):
    return minimalize(list(gens_i) + list(gens_j))


def oracle_sr_facets(gens, n):
    """Facets of the complex of monomials outside the ideal, by subset scan."""
    mem = set(members(gens, n))
    faces = [m for m in range(1 << n) if m not in mem]
    face_set = set(faces)
    return tuple(sorted(
        (f for f in faces
         if not any(f != g and f & ~g == 0 for g in face_set)),
        key=lambda x: (popcount(x), x),
    ))


def oracle_dual(gens, n):
    """Minimal hitting sets by scanning all 2^n subsets."""
    hitting = [m for m in range(1 << n) if all(m & g for g in gens)]
    return minimalize(hitting)


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction; independent of the
    fraction-free integer path."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] / pr[c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def mod_rank(rows, p) -> int:
    rows = [[x % p for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] * inv % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def faces_from_nonfaces(nonfaces, m):
    return [f for f in range(1 << m) if not any(g & ~f == 0 for g in nonfaces)]


def faces_from_facets(facets, m):
    return sorted({f for fac in facets for f in range(1 << m) if f & ~fac == 0})


def oracle_homology(faces, m, p=None):
    """Reduced homology dims {q: dim} from an explicit face list, via
    boundary matrices with position-parity signs and naive elimination."""
    if not faces:
        return {}
    by_size = {}
    for f in faces:
        by_size.setdefault(popcount(f), []).append(f)
    for v in by_size.values():
        v.sort()
    top = max(by_size)
    ranks = {}
    for s in range(1, top + 1):
        small = by_size.get(s - 1, [])
        big = by_size.get(s, [])
        index = {f: i for i, f in enumerate(small)}
        rows = [[0] * len(big) for _ in small]
        for j, face in enumerate(big):
            bits = [b for b in range(m) if face >> b & 1]
            for t, b in enumerate(bits):
                rows[index[face ^ (1 << b)]][j] = (-1) ** t
        ranks[s] = fraction_rank(rows) if p is None else mod_rank(rows, p)
    dims = {}
    for s in range(0, top + 1):
        dims[s - 1] = len(by_size.get(s, [])) - ranks.get(s, 0) - ranks.get(s + 1, 0)
    return dims


def oracle_quotient_betti(gens, n, p=None):
    """Fine and coarse Betti numbers of the quotient by direct evaluation
    of homology over every vertex subset (no saturation pruning)."""
    coarse = {}
    fine = {}
    for sigma_vars in range(1 << n):
        m_bits = [b for b in range(n) if sigma_vars >> b & 1]
        msize = len(m_bits)
        table = {b: i for i, b in enumerate(m_bits)}
        local_gens = []
        for g in gens:
            if g & ~sigma_vars == 0:
                lg = 0
                for b in m_bits:
                    if g >> b & 1:
                        lg |= 1 << table[b]
                local_gens.append(lg)
        faces = faces_from_nonfaces(local_gens, msize)
        dims = oracle_homology(faces, msize, p)
        for q, h in dims.items():
            if h:
                i = msize - q - 1
                coarse[(i, msize)] = coarse.get((i, msize), 0) + h
                fine[(i, sigma_vars)] = h
    return coarse, fine


def taylor_counts(gens):
    """Upper bounds from subset lcm degrees: count of (i+1)-element
    generator subsets whose lcm has degree j."""
    out = {}
    gens = list(gens)
    for size in range(1, len(gens) + 1):
        for combo in combinations(gens, size):
            big = 0
            for g in combo:
                big |= g
            key = (size - 1, popcount(big))
            out[key] = out.get(key, 0) + 1
    return out


def oracle_canonical_subset_index(index: int, perms) -> int:
    """Least subset index over all images of `index` under `perms` (each
    a permutation of monomial positions), by trying every one."""
    best = index
    for arr in perms:
        mapped = 0
        rem = index
        while rem:
            low = rem & -rem
            rem ^= low
            mapped |= 1 << arr[low.bit_length() - 1]
        if mapped < best:
            best = mapped
    return best


def random_mask(rng: random.Random, n: int, degree: int) -> int:
    m = 0
    for b in rng.sample(range(n), degree):
        m |= 1 << b
    return m


def random_gens(rng: random.Random, n: int, count: int, dmin: int = 1, dmax: int | None = None):
    dmax = dmax if dmax is not None else n
    picks = [random_mask(rng, n, rng.randint(dmin, dmax)) for _ in range(count)]
    return minimalize(picks)


# --- the unpruned Betti scans -------------------------------------------------
#
# The package's scans as they were before the pruned driver: every saturated
# vertex subset is visited, relabelled and re-sorted.  They share the
# package's homology engine, so they check the pruning, the relabelling and
# the GF(2)->Q candidate logic of the driver, not the homology.


def unpruned_local_complexes(gens):
    """(m, canonically sorted local generators) for every saturated sigma,
    in the package's walk order (descending submasks of the support)."""
    supp = 0
    for g in gens:
        supp |= g
    out = []
    sigma = supp
    while True:
        restricted = [g for g in gens if g & ~sigma == 0]
        union = 0
        for g in restricted:
            union |= g
        if union == sigma:
            bits = [b for b in range(sigma.bit_length()) if sigma >> b & 1]
            local = []
            for g in restricted:
                lg = 0
                for i, b in enumerate(bits):
                    if g >> b & 1:
                        lg |= 1 << i
                local.append(lg)
            out.append((len(bits), tuple(sorted(local, key=lambda x: (popcount(x), x)))))
        if sigma == 0:
            return out
        sigma = (sigma - 1) & supp


def _unpruned_max(gens, field, established, value, slots):
    from monomial_lab.complexes import GF2, _f2_counts_ranks, exact_rational_hq, homology_profile

    if field.p is not None:
        best = established
        for m, local in unpruned_local_complexes(gens):
            prof = homology_profile(m, local, field)
            for idx in slots(m):
                if prof[idx] and value(m, idx) > best:
                    best = value(m, idx)
        return best
    candidates = []
    for m, local in unpruned_local_complexes(gens):
        prof2 = homology_profile(m, local, GF2)
        for idx in slots(m):
            if prof2[idx] and value(m, idx) > established:
                counts, _ = _f2_counts_ranks(m, local)
                candidates.append((value(m, idx), sum(counts), m, local, idx - 1))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    for v, _cost, m, local, q in candidates:
        if exact_rational_hq(m, local, q):
            return v
    return established


def unpruned_regularity(gens, field):
    return _unpruned_max(gens, field, max(popcount(g) for g in gens),
                         lambda m, idx: idx + 1, lambda m: range(m))


def unpruned_projective_dimension(gens, field):
    return _unpruned_max(gens, field, 1, lambda m, idx: m - idx, lambda m: range(m))


def unpruned_nk_betti(gens, d, k, field):
    """False at the first nonzero slot at ideal index i < k off degree i + d."""
    from monomial_lab.complexes import GF2, exact_rational_hq, homology_profile

    for m, local in unpruned_local_complexes(gens):
        for i in range(min(k, m)):
            if m == i + d:
                continue
            idx = m - i - 1
            if field.p is None:
                if homology_profile(m, local, GF2)[idx] and exact_rational_hq(m, local, idx - 1):
                    return False
            elif homology_profile(m, local, field)[idx]:
                return False
    return True
