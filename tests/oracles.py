"""Brute-force reference implementations, independent of the package's
algorithms: membership enumeration over all 2^n squarefree monomials,
hitting sets by subset scan and by Berge's construction with a plain drop
test, homology by plain fraction Gaussian elimination.  Used to compute
and freeze expected values."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

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


def maximalize(masks):
    """Inclusion-maximal masks, deduplicated, in (size, mask) order, by
    pairwise tests."""
    uniq = set(masks)
    return tuple(sorted((m for m in uniq if not any(m != o and m & ~o == 0 for o in uniq)),
                        key=lambda x: (popcount(x), x)))


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


def oracle_berge_scan(masks):
    """Minimal transversals by Berge's construction with the plain drop
    test: every extension t|v is checked against every kept member that
    meets the new set s in one vertex.  Reaches the 20+ vertices that the
    subset scan of `oracle_dual` cannot."""
    partial: list[int] = [0]
    for s in masks:
        if s == 0:
            raise ValueError("family contains the empty set; no transversal exists")
        hit = []
        miss = []
        for t in partial:
            (hit if t & s else miss).append(t)
        partial = hit
        # (h, the one vertex of s in h) for the kept members h meeting s once
        single = [(h, v) for h in hit if not (v := h & s) & (v - 1)]
        for t in miss:
            ts = t | s
            dropped = 0
            for v in [v for h, v in single if not h & ~ts]:
                dropped |= v
            rem = s & ~dropped
            while rem:
                low = rem & -rem
                rem ^= low
                partial.append(t | low)
    return tuple(sorted(partial, key=lambda x: (popcount(x), x)))


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


def oracle_index_group(n: int, d: int) -> list[tuple[int, ...]]:
    """Every variable permutation, the identity included, as the
    permutation it induces on the positions of the degree-d squarefree
    monomials in ascending mask order."""
    monomials = sorted(sum(1 << i for i in c) for c in combinations(range(n), d))
    position = {m: k for k, m in enumerate(monomials)}
    return [
        tuple(position[sum(1 << p[i] for i in range(n) if m >> i & 1)] for m in monomials)
        for p in permutations(range(n))
    ]


def oracle_orbit(index: int, perms) -> set[int]:
    """Every image of subset index `index` under `perms` (each a
    permutation of monomial positions)."""
    return {sum(1 << j for i, j in enumerate(arr) if index >> i & 1) for arr in perms}


def oracle_canonical_subset_index(index: int, perms) -> int:
    """Least subset index over all images of `index` under `perms`."""
    return min(oracle_orbit(index, perms))


def oracle_campaign_bytes(stamp: dict, bound: int, partials):
    """The summary JSON, stream bytes and final checkpoint bytes of an
    exhaustive campaign (`stamp`: n, d, field, chunk_size, symmetry) whose
    chunks returned `partials` (`harness._verify_chunk` dicts, in index
    order), rendered the reference way: the state folded by copying list
    concatenation, and every ideal built as an `Ideal` of `Monomial`s and
    written by `core.to_json` through its default hook."""
    from monomial_lab.core import Ideal, Monomial, to_json

    n, d = stamp["n"], stamp["d"]
    pool = [m for m in range(1 << n) if popcount(m) == d]  # ascending masks

    @cache
    def ideal(index):
        return Ideal.from_masks(n, [m for i, m in enumerate(pool) if index >> i & 1])

    top, checked, n2_count, extremal, violations = -1, 0, 0, [], []
    lines = []
    for part in partials:
        if part["max_reg"] > top:
            extremal = list(part["extremal"])
        elif part["max_reg"] == top >= 0:
            extremal = extremal + list(part["extremal"])
        top = max(top, part["max_reg"])
        checked += part["checked"]
        n2_count += part["n2_count"]
        violations = violations + [list(v) for v in part["violations"]]
        records = [("extremal", i, top) for i in part["extremal"] if part["max_reg"] == top]
        records += [("violation", i, reg) for i, reg in part["violations"]]
        for kind, i, reg in records:
            doc = {"type": kind, "index": i, "reg": reg, "gens": list(ideal(i).gens)}
            lines.append((to_json(doc) + "\n").encode())
    stream = b"".join(lines)
    cursor = partials[-1]["end"] + 1
    checkpoint = to_json({
        **stamp, "cursor": cursor, "checked": checked, "n2_count": n2_count,
        "running_max": top, "extremal_so_far": extremal, "violations": violations,
        "stream_length": len(stream), "stream_sha256": hashlib.sha256(stream).hexdigest(),
    })
    summary = to_json({
        "n": n, "d": d, "field": stamp["field"], "total_ideals": (1 << len(pool)) - 1,
        "checked": checked, "n2_count": n2_count, "max_reg": top, "bound": bound,
        "extremal": [ideal(i) for i in extremal],
        "violations": [{"gens": ideal(i), "reg": reg} for i, reg in violations],
        "cursor": cursor,
    })
    return summary, stream, checkpoint.encode()


def random_mask(rng: random.Random, n: int, degree: int) -> int:
    m = 0
    for b in rng.sample(range(n), degree):
        m |= 1 << b
    return m


def random_gens(rng: random.Random, n: int, count: int, dmin: int = 1, dmax: int | None = None):
    dmax = dmax if dmax is not None else n
    picks = [random_mask(rng, n, rng.randint(dmin, dmax)) for _ in range(count)]
    return minimalize(picks)


def oracle_n2_verdict(gens, d):
    """The connectivity criterion pair by pair: a breadth-first search
    inside the generators dividing lcm(a, b) for every non-adjacent pair;
    (True, None) or (False, the first disconnected index pair)."""
    from monomial_lab.linearity import _adjacency, _reach

    r = len(gens)
    adj = _adjacency(gens, d)
    for a in range(r):
        for b in range(a + 1, r):
            if adj[a] >> b & 1:
                continue
            big = gens[a] | gens[b]
            members = 0
            for i in range(r):
                if gens[i] & ~big == 0:
                    members |= 1 << i
            if not _reach(adj, members, 1 << a, 1 << b) >> b & 1:
                return False, (a, b)
    return True, None


def oracle_graph_connected(gens, d) -> bool:
    """Whether the generator graph of `gens` is connected, by depth-first
    search over the pairs whose lcm has degree d + 1, in plain set code."""
    seen, todo = {0}, [0]
    while todo:
        a = todo.pop()
        for b, g in enumerate(gens):
            if b not in seen and (gens[a] | g).bit_count() == d + 1:
                seen.add(b)
                todo.append(b)
    return len(seen) == len(gens)


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
    from monomial_lab.complexes import GF2, exact_rational_hq, homology_profile

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
                candidates.append((value(m, idx), m, local, idx - 1))
    candidates.sort(key=lambda c: -c[0])
    for v, m, local, q in candidates:
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


# --- the reference saturated walk ---------------------------------------------
#
# The package's walk as it was before generator bitsets and the bit-extract
# relabel table: each sigma lists its generators by a subset test per
# generator, checks their union, and relabels them vertex by vertex.


def _reference_remap(sigma, masks):
    pos = {}
    rem = sigma
    while rem:
        low = rem & -rem
        rem ^= low
        pos[low] = 1 << len(pos)
    local = []
    for g in masks:
        lg = 0
        while g:
            low = g & -g
            g ^= low
            lg |= pos[low]
        local.append(lg)
    return len(pos), tuple(local)


def oracle_saturated_walk(gen_masks, supp, floor=0):
    """(sigma, m, local generators in the order of gen_masks) for every
    saturated sigma of at least `floor` vertices, in descending-submask
    order."""
    out = []
    sigma = supp
    while True:
        if sigma.bit_count() >= floor:
            restricted = [g for g in gen_masks if g & ~sigma == 0]
            union = 0
            for g in restricted:
                union |= g
            if union == sigma:
                out.append((sigma, *_reference_remap(sigma, restricted)))
        if sigma == 0:
            return out
        sigma = (sigma - 1) & supp


def oracle_is_antichain(masks) -> bool:
    """No mask inside another one, duplicates included, by pairwise tests."""
    return not any(a & ~b == 0 for i, a in enumerate(masks)
                   for j, b in enumerate(masks) if i != j)


def spread(masks, n: int, width: int, rng: random.Random):
    """The masks on n variables moved to n sorted random positions among
    `width`, as the benchmark embeds its inputs."""
    pos = sorted(rng.sample(range(width), n))
    return [sum(1 << pos[i] for i in range(n) if g >> i & 1) for g in masks]


class CountingMask(int):
    """An int whose bitwise and arithmetic results stay CountingMask, with
    every & counted; masks derived from the family are all counted."""

    ands = 0

    def __and__(self, other):
        CountingMask.ands += 1
        return CountingMask(int.__and__(self, other))

    __rand__ = __and__

    def __or__(self, other):
        return CountingMask(int.__or__(self, other))

    __ror__ = __or__

    def __xor__(self, other):
        return CountingMask(int.__xor__(self, other))

    __rxor__ = __xor__

    def __invert__(self):
        return CountingMask(int.__invert__(self))

    def __neg__(self):
        return CountingMask(int.__neg__(self))

    def __sub__(self, other):
        return CountingMask(int.__sub__(self, other))

    def __rsub__(self, other):
        return CountingMask(int.__rsub__(self, other))


def _edge_sets(edges):
    """Degree-2 masks as a set of 2-element vertex sets."""
    return {frozenset(v for v in range(e.bit_length()) if e >> v & 1) for e in edges}


def oracle_gap_free(edges) -> bool:
    """Whether the graph with these edges (degree-2 masks) has no gap: two
    disjoint edges with no edge between them."""
    es = _edge_sets(edges)
    return not any(
        not e & f and not any(frozenset((a, b)) in es for a in e for b in f)
        for e in es for f in es
    )


def oracle_cochordal_complement(edges) -> bool:
    """Whether the complement of the graph with these edges (degree-2
    masks), on the vertices they cover, is chordal: whether a vertex whose
    complement neighbours are pairwise adjacent there can be removed until
    none is left (a perfect elimination ordering)."""
    es = _edge_sets(edges)
    left = set().union(*es)

    def adjacent(a, b):  # in the complement
        return a != b and frozenset((a, b)) not in es

    while left:
        for v in left:
            nbrs = [u for u in left if adjacent(u, v)]
            if all(adjacent(a, b) for a, b in combinations(nbrs, 2)):
                left.remove(v)
                break
        else:
            return False
    return True
