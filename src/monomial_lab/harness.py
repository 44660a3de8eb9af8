"""Exhaustive and randomized verification campaigns.

Pure degree-d ideals on n variables are indexed by the nonempty subsets of
the canonically ordered list of degree-d squarefree monomials (any such
subset is automatically a minimal generating set).  Campaigns walk the
subset space in increasing index order, optionally in parallel over
contiguous chunks; chunk boundaries are independent of the worker count
and partial results merge in index order, so summaries are deterministic.
Long runs persist a resumable JSON checkpoint.

An exhaustive campaign settles each ideal from its one-vertex
restrictions.  For a vertex v of the support, the restriction I_{supp-v}
(the generators avoiding v) has the subset index `index & avoiding[v]`,
smaller than the ideal's own.  The value of an index is reg(I) if I is
linearly presented and 0 if not.  The recurrence is

    I linearly presented  <=>  every I_{supp-v} is, and, if |supp| <= 2d,
                               the connectivity criterion passes on I
    reg(I) = max(d, reg(I_{supp-v}) over v, the slots of sigma = supp)

Both lines are exact because of the restriction lemma: the fine Betti
numbers of I at a vertex subset sigma depend only on the generators inside
sigma (Hochster's formula), so at every sigma missing a vertex v of the
support they are those of I_{supp-v} (Herzog, Hibi, Trung and Zheng, Trans.
AMS 2008).  Every sigma but the support itself misses some vertex, so only
the support is scanned here (`betti._support_regularity`).  Likewise the
lcm subgraph of a generator pair depends only on the generators dividing
the lcm.  So a pair whose lcm misses a vertex v is tested in I_{supp-v},
and only pairs whose lcm is the whole support are left.  The lcm of two
degree-d generators has at most 2d vertices, so such pairs exist only when
|supp| <= 2d.

The values live in one restriction store per `verify_range` call: a
bytearray holding, at each subset index, the value + 1, and 0 where the
value is not known yet.  It grows to the end of each chunk, one byte per
index, and is dropped when the call ends, cleanly or by an error.  Every
chunk run in one process shares it, and each pool worker fills its own
copy.  The chunks sweep in index order, so a restriction's value is
usually read straight from the store; one not known yet (skipped by
`orbits`, swept by another worker, or before a resume's cursor) is filled
by the same recursion.  A vertex v's degree in the ideal is
`(index & containing[v]).bit_count()`, 0 off the support, so the recursion
lists no generators until all restrictions are linearly presented.

Before the support is scanned, its vertices are relabelled in increasing
(degree, vertex) order.  A relabelling gives an isomorphic complex, with
the same homology over every field, so the value is unchanged.  Only the
homology cache key changes, and the many ideals that differ by a
relabelling of that kind share one cache entry.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import get_context

from .betti import _support_regularity, regularity_masks
from .bounds import theorem_bound
from .complexes import RATIONALS, FieldSpec, _check_field
from .core import (
    CapacityError,
    Ideal,
    InputError,
    Monomial,
    _check_ambient,
    _check_int,
    _is_int,
    canon_key,
    report_json,
    squarefree_multiples,
    to_json,
)
from .linearity import _gcd_witness_masks, _linear_after, n2_verdict_masks

MAX_SUBSET_SPACE = 63  # subset indices must fit a machine word


class CheckpointError(InputError):
    """Checkpoint file missing, unreadable, or inconsistent with the run."""


def degree_monomial_masks(n: int, d: int) -> tuple[int, ...]:
    """All degree-d squarefree monomial bitmasks on n variables, canonical order."""
    return tuple(sorted(squarefree_multiples(0, n, d)))


def _check_n_d(n: int, d: int) -> None:
    if not (_is_int(n) and _is_int(d)):
        raise InputError(f"n and d must be ints, got n={n!r}, d={d!r}")
    if not 1 <= d <= n:
        raise InputError(f"need 1 <= d <= n, got d={d}, n={n}")


def _capacity_checked(n: int, d: int) -> tuple[int, ...]:
    _check_n_d(n, d)
    count = math.comb(n, d)
    if count > MAX_SUBSET_SPACE:
        raise CapacityError(
            f"subset space for n={n}, d={d} has {count} monomials; "
            f"at most {MAX_SUBSET_SPACE} are supported"
        )
    return degree_monomial_masks(n, d)


def _subset_gens(monomials: tuple[int, ...], index: int) -> tuple[int, ...]:
    gens = []
    rem = index
    while rem:
        low = rem & -rem
        rem ^= low
        gens.append(monomials[low.bit_length() - 1])
    return tuple(gens)


def enumerate_pure_ideals(n: int, d: int):
    """Every ideal generated by a nonempty set of degree-d monomials, as a
    generator in increasing subset-index order."""
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1
    return (Ideal.from_masks(n, _subset_gens(monomials, index)) for index in range(1, total + 1))


# --- symmetry reduction -------------------------------------------------------

def _image(mask: int, arr) -> int:
    """`mask` with each set bit i moved to bit arr[i]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << arr[low.bit_length() - 1]
    return out


@functools.cache
def _index_perms(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each variable permutation but the identity, the induced
    permutation of monomial indices.  Feasible for n <= 7 only."""
    monomials = degree_monomial_masks(n, d)
    index_of = {m: i for i, m in enumerate(monomials)}
    perms = itertools.permutations(range(n))
    next(perms)  # the identity comes first
    return tuple(tuple(index_of[_image(m, p)] for m in monomials) for p in perms)


def _orbit_size(index: int, perms) -> int:
    """The size of the orbit of subset index `index` under the identity and
    the non-identity permutations `perms` if `index` is the least index in
    it, else 0; with no `perms`, 1.

    Stops at the first permutation that maps the index lower.  A least
    index goes through all of them, and its orbit size is the group order
    len(perms) + 1 over the number of permutations that fix it, the
    identity included (orbit-stabilizer)."""
    fixed = 1
    for arr in perms:
        mapped = _image(index, arr)
        if mapped < index:
            return 0
        fixed += mapped == index
    return (len(perms) + 1) // fixed


# --- exhaustive verification ---------------------------------------------------


@dataclass
class EnumerationSummary:
    n: int
    d: int
    field: str
    total_ideals: int
    checked: int
    n2_count: int
    max_reg: int
    bound: int
    extremal: tuple[Ideal, ...]
    violations: tuple[tuple[Ideal, int], ...]
    cursor: int
    elapsed: float

    @property
    def violations_empty(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Deterministic serialization (wall-clock time excluded)."""
        return report_json(self, violations=[{"gens": I, "reg": reg} for I, reg in self.violations])


def _vertex_indices(n: int, monomials: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """For each vertex v, the subset indices of the monomials containing v
    and of those avoiding it.  ANDed with an ideal's index, the first one
    holds v's generators and the second one gives the index of the
    restriction to the vertices but v."""
    full = (1 << len(monomials)) - 1
    containing = [sum(1 << i for i, m in enumerate(monomials) if m >> v & 1) for v in range(n)]
    return containing, [full ^ c for c in containing]


# The restriction store of each running `verify_range` call, keyed by its
# (n, d, field.p); see the module docstring.
_STORES: dict[tuple[int, int, int | None], bytearray] = {}


@contextlib.contextmanager
def _open_store(n: int, d: int, p: int | None):
    """Open the restriction store that the chunks of one call share, seeded
    with the value d of index 0 (the zero ideal adds nothing), and drop it
    on exit."""
    key = (n, d, p)
    _STORES[key] = bytearray([d + 1])
    try:
        yield
    finally:
        del _STORES[key]


def _relabelled_support(monomials: tuple[int, ...], index: int, keys) -> tuple[int, tuple[int, ...]]:
    """(m, local): the generators of the ideal at `index` with its support
    relabelled onto 0..m-1, the vertex of the i-th least (degree, vertex)
    in `keys` (one per support vertex) becoming vertex i; canonical order."""
    bit = {v: 1 << at for at, (_, v) in enumerate(sorted(keys))}
    local = []
    rem = index
    while rem:
        low = rem & -rem
        rem ^= low
        g = monomials[low.bit_length() - 1]
        lg = 0
        while g:
            one = g & -g
            g ^= one
            lg |= bit[one.bit_length() - 1]
        local.append(lg)
    return len(keys), tuple(sorted(local, key=canon_key))


def _linear_reg(index: int, store: bytearray, monomials: tuple[int, ...],
                containing: list[int], avoiding: list[int], d: int, field: FieldSpec) -> int:
    """reg of the ideal at subset `index` if it is linearly presented, else
    0, by recursion over its one-vertex restrictions.  Each one is read
    from `store` (value + 1, 0 for not known yet; see the module docstring),
    or computed and written into it first; so is the result.  The store
    must reach past `index`.

    The ideal is linearly presented when its restrictions are and, if
    |supp| <= 2d, the connectivity criterion passes on it; its regularity
    is the largest of d, its restrictions' values and the slots of sigma =
    supp, relabelled by (degree, vertex)."""
    best = d
    keys = []  # (degree, vertex) of each support vertex
    for v, (has, lacks) in enumerate(zip(containing, avoiding)):
        degree = (index & has).bit_count()
        if not degree:
            continue
        below = index & lacks
        value = store[below] - 1
        if value < 0:
            value = _linear_reg(below, store, monomials, containing, avoiding, d, field)
        if not value:
            break
        if value > best:
            best = value
        keys.append((degree, v))
    else:
        m, local = _relabelled_support(monomials, index, keys)
        linear = m > 2 * d or n2_verdict_masks(local, d)[0]
        value = _support_regularity(m, local, field, best) if linear else 0
    store[index] = value + 1
    return value


def _verify_chunk(task):
    n, d, fieldp, start, end, bound, symmetry = task
    monomials = degree_monomial_masks(n, d)
    containing, avoiding = _vertex_indices(n, monomials)
    field = FieldSpec(fieldp)
    # each orbit's least index is checked once and counted for its orbit;
    # under "off" the group is the identity alone
    perms = _index_perms(n, d) if symmetry == "orbits" else ()
    # the call's store, or one of this chunk's own when no call opened one
    store = _STORES.get((n, d, fieldp))
    if store is None:
        store = bytearray([d + 1])
    if len(store) <= end:
        store.extend(bytes(end + 1 - len(store)))
    checked = 0
    n2_count = 0
    max_reg = -1
    extremal: list[int] = []
    violations: list[tuple[int, int]] = []
    for index in range(start, end + 1):
        weight = _orbit_size(index, perms)
        if not weight:
            continue
        checked += weight
        reg = store[index] - 1  # known already only if a later chunk ran first
        if reg < 0:
            reg = _linear_reg(index, store, monomials, containing, avoiding, d, field)
        if not reg:
            continue
        n2_count += weight
        if reg > max_reg:
            max_reg = reg
            extremal = [index]
        elif reg == max_reg:
            extremal.append(index)
        if reg > bound:
            orbit = sorted({index}.union(_image(index, arr) for arr in perms))
            violations += [(member, reg) for member in orbit]
    return {
        "start": start,
        "end": end,
        "checked": checked,
        "n2_count": n2_count,
        "max_reg": max_reg,
        "extremal": extremal,
        "violations": violations,
    }


def _write_checkpoint(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(to_json(doc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# campaign state before the first chunk, under the checkpoint file's key names
_START_STATE = {
    "cursor": 1,
    "checked": 0,
    "n2_count": 0,
    "running_max": -1,
    "extremal_so_far": [],
    "violations": [],
}


def _read_checkpoint(path: str, stamp: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or not (stamp.keys() | _START_STATE.keys()) <= doc.keys():
        raise CheckpointError(f"checkpoint {path} is missing required fields")
    found = {key: doc[key] for key in stamp}
    if found != stamp:
        raise CheckpointError(f"checkpoint {path} was written for run {found}, not {stamp}")
    return doc


def _merge(state: dict, partial: dict) -> dict:
    """The campaign state after the next chunk in index order.

    Does no I/O and never mutates its arguments, so a state may be shared.
    """
    top = state["running_max"]
    chunk_max = partial["max_reg"]
    extremal = state["extremal_so_far"]
    if chunk_max > top:
        extremal = partial["extremal"]
    elif chunk_max == top >= 0:
        extremal = extremal + partial["extremal"]
    return {
        "cursor": partial["end"] + 1,
        "checked": state["checked"] + partial["checked"],
        "n2_count": state["n2_count"] + partial["n2_count"],
        "running_max": max(top, chunk_max),
        "extremal_so_far": extremal,
        "violations": state["violations"] + [list(v) for v in partial["violations"]],
    }


def _stream_lines(n: int, monomials: tuple[int, ...], partial: dict, running_max: int):
    """A chunk's stream records, as encoded lines: its extremal ideals when
    they reach the running max at merge time, then its violations."""
    extremal = partial["extremal"] if partial["max_reg"] == running_max else ()
    records = [("extremal", idx, running_max) for idx in extremal]
    records += [("violation", idx, reg) for idx, reg in partial["violations"]]
    for kind, idx, reg in records:
        gens = [Monomial(n, m) for m in _subset_gens(monomials, idx)]
        doc = {"type": kind, "index": idx, "reg": reg, "gens": gens}
        yield (to_json(doc) + "\n").encode()


def verify_range(
    n: int,
    d: int,
    field: FieldSpec = RATIONALS,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    chunk_size: int = 4096,
    symmetry: str = "off",
    stream_path: str | None = None,
) -> EnumerationSummary:
    """Exhaustively test the regularity bound over all pure degree-d ideals.

    Every enumerated ideal passing the connectivity criterion gets its
    regularity computed and compared against max(d, f(n, d)) at the
    ambient n.  Both come from the ideal's one-vertex restrictions (module
    docstring): the ideal is linearly presented when all of them are and,
    if |supp| <= 2d, the criterion passes on it, and its regularity is the
    largest of d, theirs, and the Betti slots of the support alone, scanned
    with its vertices relabelled by degree.  That is exact by the
    restriction lemma (the Betti numbers at a vertex subset missing v are
    those of the restriction to supp - v), because a generator pair's lcm
    is the whole support only when |supp| <= 2d, and because a relabelling
    leaves the homology unchanged.  The values sit in one restriction store
    per call, one byte per index up to the current chunk's end, which the
    chunks run in one process share and which is dropped when the call
    ends, normally or by an error.  The summary (including the extremal ideals and any
    violations) is byte-identical for any worker count and for
    checkpointed-and-resumed runs.  With symmetry="orbits" (n <= 7), only
    the least subset index of each orbit under the variable permutations is
    checked, and it counts for its whole orbit: the counts and violations
    are the labelled ones of "off", the extremal ideals one per orbit.  The
    checkpoint records the stream's length and hash; a resume refuses a
    stream at least that long whose first bytes do not match, and cuts a
    matching one back.  The worker pool is terminated when the merge ends,
    normally or by an error (a failed checkpoint write, say), so queued
    chunks are never waited for.
    """
    monomials = _capacity_checked(n, d)
    if symmetry not in ("off", "orbits"):
        raise InputError(f"symmetry must be off|orbits, got {symmetry!r}")
    if symmetry == "orbits" and n > 7:
        raise InputError("symmetry reduction enumerates n! permutations; n <= 7 only")
    _check_field(field)
    _check_int("jobs", jobs, 1)
    _check_int("chunk_size", chunk_size, 1)
    total = (1 << len(monomials)) - 1
    bound = theorem_bound(n, d)
    t0 = time.monotonic()

    stamp = {"n": n, "d": d, "field": field.label, "chunk_size": chunk_size,
             "symmetry": symmetry}
    doc = {}
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        doc = _read_checkpoint(checkpoint_path, stamp)
    state = {key: doc.get(key, default) for key, default in _START_STATE.items()}

    # the store, the stream and the worker pool are released on one path,
    # error or not; the pool's workers fork with the store open
    with contextlib.ExitStack() as stack:
        stack.enter_context(_open_store(n, d, field.p))
        stream = sha = None
        if stream_path:
            stream = stack.enter_context(open(stream_path, "a+b"))  # creates a missing file
            stream.seek(0)
            length = doc.get("stream_length")
            sha = hashlib.sha256(stream.read(length))  # the whole file when length is None
            if length is not None and stream.seek(0, os.SEEK_END) >= length:
                if sha.hexdigest() != doc.get("stream_sha256"):
                    raise CheckpointError(
                        f"stream {stream_path} does not begin with the bytes its checkpoint hashed")
                stream.seek(length)
                stream.truncate()  # records of chunks the checkpoint lacks
        starts = range(state["cursor"], total + 1, chunk_size)
        tasks = [
            (n, d, field.p, s, min(s + chunk_size - 1, total), bound, symmetry)
            for s in starts
        ]
        if jobs == 1 or len(tasks) <= 1:
            results = map(_verify_chunk, tasks)
        else:
            pool = get_context("fork").Pool(processes=min(jobs, len(tasks)))
            stack.callback(lambda: pool.terminate())  # `terminate` is read at exit, not here
            results = pool.imap(_verify_chunk, tasks)
        mark = {}
        for partial in results:
            state = _merge(state, partial)
            if stream is not None:
                for line in _stream_lines(n, monomials, partial, state["running_max"]):
                    stream.write(line)
                    sha.update(line)
                stream.flush()
                mark = {"stream_length": stream.tell(), "stream_sha256": sha.hexdigest()}
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, {**stamp, **state, **mark})

    extremal = tuple(
        Ideal.from_masks(n, _subset_gens(monomials, idx)) for idx in state["extremal_so_far"]
    )
    violations = tuple(
        (Ideal.from_masks(n, _subset_gens(monomials, idx)), reg)
        for idx, reg in sorted(state["violations"])  # an orbit comes with its least index
    )
    return EnumerationSummary(
        n=n,
        d=d,
        field=field.label,
        total_ideals=total,
        checked=state["checked"],
        n2_count=state["n2_count"],
        max_reg=state["running_max"],
        bound=bound,
        extremal=extremal,
        violations=violations,
        cursor=state["cursor"],
        elapsed=time.monotonic() - t0,
    )


# --- built-in golden example ----------------------------------------------------


def remark_example() -> tuple[Ideal, Monomial, Monomial]:
    """The built-in 8-variable degree-4 ideal with a linear resolution, the
    generator f whose degree-2 divisor breaks linear presentation after
    truncation, and that divisor g."""
    I = Ideal(
        8,
        (
            Monomial.of(8, 3, 4, 7, 8),
            Monomial.of(8, 3, 4, 5, 7),
            Monomial.of(8, 3, 5, 6, 7),
            Monomial.of(8, 1, 5, 6, 7),
            Monomial.of(8, 1, 2, 5, 6),
        ),
    )
    return I, Monomial.of(8, 1, 2, 5, 6), Monomial.of(8, 1, 2)


# --- gcd witness sweep -----------------------------------------------------------


@dataclass
class GcdSweepReport:
    n: int
    d: int
    ideals: int
    pairs_checked: int
    witnesses_found: int
    violations: tuple[tuple[Ideal, Monomial], ...]
    elapsed: float

    @property
    def violations_empty(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return report_json(self, violations=[{"gens": I, "f": f} for I, f in self.violations])


def gcd_lemma_sweep(n: int, d: int) -> GcdSweepReport:
    """Exhaustive witness check: for every pure degree-d ideal I and every
    squarefree f with 2 <= deg f <= d, I not inside (f), and the degree-d
    truncation of I + (f) linearly presented, some generator f1 must have
    deg gcd(f1, f) = deg f - 1 with the truncation of I + (gcd) still
    linearly presented.  Reports any (I, f) without a witness (expected:
    none).  The verdicts use the connectivity criterion, which involves no
    field.
    """
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1
    t0 = time.monotonic()
    # the degree-d multiples of each f and of each gcd(f1, f), of degree >= 1
    supersets = {
        m: squarefree_multiples(m, n, d)
        for deg in range(1, d + 1) for m in degree_monomial_masks(n, deg)
    }
    multiples = supersets.__getitem__
    f_candidates = [f for f in supersets if f.bit_count() >= 2]
    pairs_checked = 0
    violations: list[tuple[int, int]] = []
    for index in range(1, total + 1):
        gens = _subset_gens(monomials, index)
        for f in f_candidates:
            if all(f & ~g == 0 for g in gens):
                continue  # I inside (f)
            if not _linear_after(gens, f, d, multiples):
                continue
            pairs_checked += 1
            if _gcd_witness_masks(gens, f, d, multiples) is None:
                violations.append((index, f))
    return GcdSweepReport(
        n=n,
        d=d,
        ideals=total,
        pairs_checked=pairs_checked,
        witnesses_found=pairs_checked - len(violations),
        violations=tuple(
            (Ideal.from_masks(n, _subset_gens(monomials, idx)), Monomial(n, f))
            for idx, f in violations
        ),
        elapsed=time.monotonic() - t0,
    )


# --- randomized open-case search --------------------------------------------------


@dataclass
class SearchReport:
    n: int
    d: int
    samples: int
    seed: int
    n2_count: int
    max_reg: int
    bound: int
    best: Ideal | None
    elapsed: float

    def to_json(self) -> str:
        return report_json(self, tight=self.max_reg == self.bound)


def _colex_mask(rank: int, n: int, d: int) -> int:
    """The degree-d mask on n variables at position `rank` of
    `degree_monomial_masks(n, d)`: ascending masks of one degree are the
    d-subsets in colex order, whose k-th largest element is the largest c
    with comb(c, k) <= the rank left over by the larger ones."""
    mask = 0
    c = n
    for k in range(d, 0, -1):
        c -= 1
        while math.comb(c, k) > rank:
            c -= 1
        mask |= 1 << c
        rank -= math.comb(c, k)
    return mask


def open_case_search(
    n: int,
    d: int,
    samples: int = 1000,
    seed: int = 0,
    field: FieldSpec = RATIONALS,
) -> SearchReport:
    """Randomized search for high-regularity linearly presented ideals in
    ranges beyond exhaustive reach (preset of interest: n=10, d=4, where no
    example attaining the bound is known).  Each sample draws positions in
    `degree_monomial_masks(n, d)` and builds only the drawn monomials, so
    the C(n, d) monomials are never listed."""
    _check_ambient(n)
    _check_n_d(n, d)
    _check_int("samples", samples, 0)
    _check_field(field)
    count = math.comb(n, d)
    bound = theorem_bound(n, d)
    rng = random.Random(seed)
    t0 = time.monotonic()
    n2_count = 0
    max_reg = -1
    best: tuple[int, ...] | None = None
    for _ in range(samples):
        size = rng.randint(1, min(count, 4 * n))
        gens = tuple(_colex_mask(i, n, d) for i in sorted(rng.sample(range(count), size)))
        ok, _ = n2_verdict_masks(gens, d)
        if not ok:
            continue
        n2_count += 1
        reg = regularity_masks(gens, field)
        if reg > max_reg:
            max_reg = reg
            best = gens
    return SearchReport(
        n=n,
        d=d,
        samples=samples,
        seed=seed,
        n2_count=n2_count,
        max_reg=max_reg,
        bound=bound,
        best=Ideal.from_masks(n, best) if best else None,
        elapsed=time.monotonic() - t0,
    )
