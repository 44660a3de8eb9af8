"""Exhaustive and randomized verification campaigns.

Pure degree-d ideals on n variables are indexed by the nonempty subsets of
the canonically ordered list of degree-d squarefree monomials (any such
subset is automatically a minimal generating set).  Campaigns walk the
subset space in increasing index order, optionally in parallel over
contiguous chunks; chunk boundaries are independent of the worker count
and partial results merge in index order, so summaries are deterministic.
Long runs persist a resumable JSON checkpoint.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import get_context

from .betti import regularity_masks
from .bounds import theorem_bound
from .complexes import RATIONALS, FieldSpec
from .core import CapacityError, Ideal, InputError, Monomial, canon_key
from .linearity import n2_verdict_masks

MAX_SUBSET_SPACE = 63  # subset indices must fit a machine word


class CheckpointError(InputError):
    """Checkpoint file missing, unreadable, or inconsistent with the run."""


def degree_monomial_masks(n: int, d: int) -> tuple[int, ...]:
    """All degree-d squarefree monomial bitmasks on n variables, canonical order."""
    return tuple(
        sorted(sum(1 << i for i in combo) for combo in itertools.combinations(range(n), d))
    )


def _capacity_checked(n: int, d: int) -> tuple[int, ...]:
    if not 1 <= d <= n:
        raise InputError(f"need 1 <= d <= n, got d={d}, n={n}")
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


def enumerate_pure_ideals(n: int, d: int, visitor=None):
    """Every ideal generated by a nonempty set of degree-d monomials,
    visited once in increasing subset-index order.

    With a visitor callable, applies it to each ideal and returns the
    count; otherwise returns a generator.
    """
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1

    def produce():
        for index in range(1, total + 1):
            yield Ideal.from_masks(n, _subset_gens(monomials, index))

    if visitor is None:
        return produce()
    count = 0
    for ideal in produce():
        visitor(ideal)
        count += 1
    return count


# --- symmetry reduction -------------------------------------------------------

_PERM_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _index_perms(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each variable permutation, the induced permutation of monomial
    indices.  Feasible for n <= 7 only."""
    key = (n, d)
    cached = _PERM_CACHE.get(key)
    if cached is not None:
        return cached
    monomials = degree_monomial_masks(n, d)
    index_of = {m: i for i, m in enumerate(monomials)}
    perms = []
    for p in itertools.permutations(range(n)):
        arr = []
        for m in monomials:
            nm = 0
            rem = m
            while rem:
                low = rem & -rem
                rem ^= low
                nm |= 1 << p[low.bit_length() - 1]
            arr.append(index_of[nm])
        perms.append(tuple(arr))
    result = tuple(perms)
    _PERM_CACHE[key] = result
    return result


def _least_in_orbit(index: int, perms) -> bool:
    """Whether `index` is the least subset index in its orbit under the
    variable permutations `perms`; stops at the first one that maps it lower."""
    for arr in perms:
        mapped = 0
        rem = index
        while rem:
            low = rem & -rem
            rem ^= low
            mapped |= 1 << arr[low.bit_length() - 1]
        if mapped < index:
            return False
    return True


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
        doc = {
            "n": self.n,
            "d": self.d,
            "field": self.field,
            "total_ideals": self.total_ideals,
            "checked": self.checked,
            "n2_count": self.n2_count,
            "max_reg": self.max_reg,
            "bound": self.bound,
            "extremal": [[str(g) for g in ideal.gens] for ideal in self.extremal],
            "violations": [
                {"gens": [str(g) for g in ideal.gens], "reg": reg}
                for ideal, reg in self.violations
            ],
            "cursor": self.cursor,
        }
        return json.dumps(doc, sort_keys=True)


def _verify_chunk(task):
    n, d, fieldp, start, end, bound, symmetry = task
    monomials = degree_monomial_masks(n, d)
    field = FieldSpec(fieldp)
    indices = range(start, end + 1)
    if symmetry == "skip":
        perms = _index_perms(n, d)
        indices = [index for index in indices if _least_in_orbit(index, perms)]
    checked = 0
    n2_count = 0
    max_reg = -1
    extremal: list[int] = []
    violations: list[tuple[int, int]] = []
    for index in indices:
        checked += 1
        gens = _subset_gens(monomials, index)
        ok, _ = n2_verdict_masks(gens, d)
        if not ok:
            continue
        n2_count += 1
        reg = regularity_masks(gens, field)
        if reg > max_reg:
            max_reg = reg
            extremal = [index]
        elif reg == max_reg:
            extremal.append(index)
        if reg > bound:
            violations.append((index, reg))
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
        json.dump(doc, fh, sort_keys=True)
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
        gens = [str(Monomial(n, m)) for m in _subset_gens(monomials, idx)]
        doc = {"type": kind, "index": idx, "reg": reg, "gens": gens}
        yield (json.dumps(doc, sort_keys=True) + "\n").encode()


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
    ambient n.  The summary (including the extremal ideals and any
    violations) is byte-identical for any worker count and for
    checkpointed-and-resumed runs.  The checkpoint records the stream's
    length and hash; a resume refuses a stream at least that long whose
    first bytes do not match, and cuts a matching one back.  An error while
    merging (a failed checkpoint write, say) terminates the worker pool at
    once instead of waiting for the queued chunks.
    """
    if symmetry not in ("off", "dedupe", "skip"):
        raise InputError(f"symmetry must be off|dedupe|skip, got {symmetry!r}")
    if symmetry != "off" and n > 7:
        raise InputError("symmetry reduction enumerates n! permutations; n <= 7 only")
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    if chunk_size < 1:
        raise InputError(f"chunk_size must be >= 1, got {chunk_size}")
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1
    bound = theorem_bound(n, d)
    t0 = time.monotonic()

    stamp = {"n": n, "d": d, "field": field.label, "chunk_size": chunk_size,
             "symmetry": symmetry}
    state = _START_STATE
    doc = {}
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        doc = _read_checkpoint(checkpoint_path, stamp)
        state = {key: doc[key] for key in _START_STATE}

    stream = sha = None
    if stream_path:
        length = doc.get("stream_length")
        with open(stream_path, "a+b") as fh:  # creates a missing file
            fh.seek(0)
            sha = hashlib.sha256(fh.read(length))  # the whole file when length is None
            end = fh.seek(0, os.SEEK_END)
        if length is not None and end >= length:
            if sha.hexdigest() != doc.get("stream_sha256"):
                raise CheckpointError(
                    f"stream {stream_path} does not begin with the bytes its checkpoint hashed")
            os.truncate(stream_path, length)  # records of chunks the checkpoint lacks
        stream = open(stream_path, "ab")
    try:
        starts = range(state["cursor"], total + 1, chunk_size)
        tasks = [
            (n, d, field.p, s, min(s + chunk_size - 1, total), bound, symmetry)
            for s in starts
        ]
        if jobs == 1 or len(tasks) <= 1:
            results = map(_verify_chunk, tasks)
            pool = None
        else:
            ctx = get_context("fork")
            pool = ctx.Pool(processes=jobs)
            results = pool.imap(_verify_chunk, tasks)
        try:
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
        except BaseException:
            if pool is not None:
                pool.terminate()
            raise
        if pool is not None:
            pool.close()
            pool.join()
    finally:
        if stream is not None:
            stream.close()

    extremal_idx = state["extremal_so_far"]
    if symmetry == "dedupe":
        # reg and N_2 are invariant under relabelling, so the extremal ideals
        # are whole orbits in increasing index order: keeping each orbit's
        # least index keeps its first member
        perms = _index_perms(n, d)
        extremal_idx = [idx for idx in extremal_idx if _least_in_orbit(idx, perms)]

    extremal = tuple(
        Ideal.from_masks(n, _subset_gens(monomials, idx)) for idx in extremal_idx
    )
    violations = tuple(
        (Ideal.from_masks(n, _subset_gens(monomials, idx)), reg)
        for idx, reg in state["violations"]
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
        doc = {
            "n": self.n,
            "d": self.d,
            "ideals": self.ideals,
            "pairs_checked": self.pairs_checked,
            "witnesses_found": self.witnesses_found,
            "violations": [
                {"gens": [str(g) for g in ideal.gens], "f": str(f)}
                for ideal, f in self.violations
            ],
        }
        return json.dumps(doc, sort_keys=True)


def _degree_supersets(f: int, n: int, d: int, cache: dict) -> tuple[int, ...]:
    got = cache.get(f)
    if got is None:
        rest = [i for i in range(n) if not f >> i & 1]
        out = []
        for extra in itertools.combinations(rest, d - f.bit_count()):
            m = f
            for i in extra:
                m |= 1 << i
            out.append(m)
        got = tuple(out)
        cache[f] = got
    return got


def gcd_lemma_sweep(n: int, d: int, field: FieldSpec = RATIONALS) -> GcdSweepReport:
    """Exhaustive witness check: for every pure degree-d ideal I and every
    squarefree f with 2 <= deg f <= d, I not inside (f), and the degree-d
    truncation of I + (f) linearly presented, some generator f1 must have
    deg gcd(f1, f) = deg f - 1 with the truncation of I + (gcd) still
    linearly presented.  Reports any (I, f) without a witness (expected:
    none).  The verdicts use the connectivity criterion, so `field` does
    not influence them.
    """
    del field
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1
    t0 = time.monotonic()
    f_candidates = [
        m for deg in range(2, d + 1) for m in degree_monomial_masks(n, deg)
    ]
    superset_cache: dict[int, tuple[int, ...]] = {}
    pairs_checked = 0
    witnesses = 0
    violations: list[tuple[int, int]] = []
    for index in range(1, total + 1):
        gens = _subset_gens(monomials, index)
        gen_set = set(gens)
        for f in f_candidates:
            if all(f & ~g == 0 for g in gens):
                continue  # I inside (f)
            trunc_f = gen_set.union(_degree_supersets(f, n, d, superset_cache))
            ok, _ = n2_verdict_masks(tuple(sorted(trunc_f)), d)
            if not ok:
                continue
            pairs_checked += 1
            found = False
            fd = f.bit_count()
            for f1 in gens:
                g = f1 & f
                if g.bit_count() != fd - 1:
                    continue
                trunc_g = gen_set.union(_degree_supersets(g, n, d, superset_cache))
                ok, _ = n2_verdict_masks(tuple(sorted(trunc_g)), d)
                if ok:
                    found = True
                    break
            if found:
                witnesses += 1
            else:
                violations.append((index, f))
    return GcdSweepReport(
        n=n,
        d=d,
        ideals=total,
        pairs_checked=pairs_checked,
        witnesses_found=witnesses,
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
        doc = {
            "n": self.n,
            "d": self.d,
            "samples": self.samples,
            "seed": self.seed,
            "n2_count": self.n2_count,
            "max_reg": self.max_reg,
            "bound": self.bound,
            "best": [str(g) for g in self.best.gens] if self.best else None,
            "tight": self.max_reg == self.bound,
        }
        return json.dumps(doc, sort_keys=True)


def open_case_search(
    n: int,
    d: int,
    samples: int = 1000,
    seed: int = 0,
    field: FieldSpec = RATIONALS,
) -> SearchReport:
    """Randomized search for high-regularity linearly presented ideals in
    ranges beyond exhaustive reach (preset of interest: n=10, d=4, where no
    example attaining the bound is known)."""
    if not 1 <= d <= n:
        raise InputError(f"need 1 <= d <= n, got d={d}, n={n}")
    monomials = degree_monomial_masks(n, d)
    bound = theorem_bound(n, d)
    rng = random.Random(seed)
    t0 = time.monotonic()
    n2_count = 0
    max_reg = -1
    best: tuple[int, ...] | None = None
    for _ in range(samples):
        size = rng.randint(1, min(len(monomials), 4 * n))
        gens = tuple(sorted(rng.sample(monomials, size), key=canon_key))
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
