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
(the generators avoiding v) is the ideal's index without the bits of
`containing[v]`, a smaller index.  The value of an index is reg(I) if I
is linearly presented and 0 if not.  With m = |supp|, the recurrence is

    I linearly presented  <=>  every I_{supp-v} is, and m <= d + 1 or
                               beta_{1,supp}(I) = 0
    reg(I) = max(d, reg(I_{supp-v}) over v, the slots of sigma = supp)

Both lines are exact because of the restriction lemma: the fine Betti
numbers of I at a vertex subset sigma depend only on the generators inside
sigma (Hochster's formula), so at every sigma missing a vertex v of the
support they are those of I_{supp-v} (Herzog, Hibi, Trung and Zheng, Trans.
AMS 2008).  Every sigma but the support itself misses some vertex, so only
the support is scanned here (`betti._support_regularity`).  Its slot
beta_{1,supp}, a first syzygy of degree m, is off the linear strand when
m > d + 1, and it is the one slot on row m - 1: a restriction's support
has at most m - 1 vertices, so its regularity is at most max(d, m - 2),
and the support's other slots lie lower.  So such an ideal is linearly
presented exactly when the scan stays below m - 1.  beta_{1,supp} is the
reduced H_0 of an interval of the lcm lattice, the same over every field
(Gasharov, Peeva and Welker, Math. Res. Lett. 1999), and Taylor's cut in
the scan leaves it 0 when m > 2d.

The values live in one restriction store per `verify_range` call: a
bytearray holding, at each subset index, the value + 1, and 0 where the
value is not known yet.  It grows to the end of each chunk, one byte per
index, and is dropped when the call ends, cleanly or by an error.  Every
chunk run in one process shares it, and each pool worker fills its own
copy.  The chunks sweep in index order, so a restriction's value is
usually read straight from the store; one not known yet (swept by another
worker, or before a resume's cursor) is filled by the same recursion.  A
vertex v's degree in the ideal is `(index & containing[v]).bit_count()`,
0 off the support, so the recursion lists no generators until all
restrictions are linearly presented.

An ideal whose restrictions are all linearly presented is settled from
its twin: the subset index of the same ideal with its support renumbered
0..m-1 by decreasing vertex degree, ties by vertex (`_twin`).  A vertex
permutation keeps linear presentation and the homology of every local
complex over every field, so the twin has the ideal's value.  A twin
below the index lies inside the store, which reaches past the index, so
its value is read there or found by the same recursion, and the store
still ends at the chunk's end; a twin above the index may lie past it, so
it is not read.  The twin is its own twin, so the recursion into it ends
after one level.  Only an ideal at or below its twin is scanned, on the
twin's generators, and the ideals with one twin share one homology cache
entry.

A campaign's results stay subset indices to the end.  Each chunk returns
its extremal indices as one `array('q')`, which `_merge` appends as it is
to a tuple, so no merge copies the indices kept so far.  A campaign
counts every index below its cursor, so `checked` is cursor - 1.
`IndexedIdeals` is the one decoder of subset indices into `Ideal`s: for
`enumerate_pure_ideals`, the summary's `extremal` and the violations of
both sweeps.  Its length builds nothing, and each `Ideal` is built when
it is read.  Every JSON record, the summary's and the stream's, takes
its generator lists from one table of the degree-d monomials' strings per
(n, d) (`_names`) and goes through `core.to_json`.  An ideal's JSON is the
list of its generators' strings in canonical order, which is subset-index
bit order, so no `Monomial` or `Ideal` is built on the output path.  The
checkpoint still writes `extremal_so_far` as one JSON list, which a resume
turns back into an array.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import random
import re
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import get_context

from .betti import _support_regularity, regularity_masks
from .bounds import theorem_bound
from .complexes import GF2, RATIONALS, FieldSpec, _check_field
from .core import (
    CapacityError,
    Ideal,
    InputError,
    Monomial,
    _check_ambient,
    _check_int,
    _is_int,
    report_json,
    squarefree_multiples,
    to_json,
)
from .linearity import n2_verdict_masks

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
    """Every ideal generated by a nonempty set of degree-d monomials, as an
    iterator in increasing subset-index order."""
    total = (1 << len(_capacity_checked(n, d))) - 1
    return iter(IndexedIdeals(n, d, range(1, total + 1)))


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


def _lower_image(index: int, perms) -> int:
    """An image of subset index `index` lower than `index` under one of the
    permutations `perms` (a group but its identity, as `_index_perms` lists
    it; not empty), or 0 if none is: `index` is then the least index in its
    orbit, its representative.

    The group is closed under inverses, so each `arr` is read as the
    inverse of an element g: bit p of g's image of `index` is bit arr[p] of
    `index`.  The image is compared with `index` from the top bit down and
    only up to the first bit where they differ; it is lower when `index`
    has the 1 there, and is then returned, read off the same bits."""
    bits = [index >> p & 1 for p in range(len(perms[0]))]
    top_down = range(len(bits) - 1, -1, -1)
    for arr in perms:
        for p in top_down:
            bit = bits[arr[p]]
            if bit != bits[p]:
                break
        else:
            continue  # g fixes `index`
        if not bit:
            return sum(bits[q] << p for p, q in enumerate(arr))
    return 0


# --- exhaustive verification ---------------------------------------------------


@functools.cache
def _names(n: int, d: int) -> tuple[str, ...]:
    """The string of each degree-d monomial on n variables, in the order of
    `degree_monomial_masks(n, d)`: `_subset_gens(_names(n, d), index)` is
    the JSON generator list of the ideal at `index`."""
    return tuple(str(Monomial(n, m)) for m in degree_monomial_masks(n, d))


class IndexedIdeals(Sequence):
    """A read-only sequence of pure degree-d ideals on n variables, kept as
    their subset indices (any sequence of ints), and the module's one
    decoder of subset indices.  `len` builds nothing; indexing and iteration
    build each `Ideal` when it is read, and a slice is another
    `IndexedIdeals`.  It compares equal to any sequence of the same ideals."""

    __slots__ = ("n", "d", "indices")
    __hash__ = None  # equal to tuples of the same ideals, whose hashes differ

    def __init__(self, n: int, d: int, indices: Sequence[int]):
        self.n, self.d, self.indices = n, d, indices

    def __len__(self) -> int:
        return len(self.indices)

    def _ideal(self, index: int) -> Ideal:
        return Ideal.from_masks(self.n, _subset_gens(_sweep_tables(self.n, self.d)[1], index))

    def __getitem__(self, at):
        if isinstance(at, slice):
            return IndexedIdeals(self.n, self.d, self.indices[at])
        return self._ideal(self.indices[at])

    def __iter__(self):
        return map(self._ideal, self.indices)

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"IndexedIdeals(n={self.n}, d={self.d}, {len(self)} ideals)"


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
    extremal: IndexedIdeals
    violations: tuple[tuple[Ideal, int], ...]
    cursor: int
    elapsed: float

    @property
    def violations_empty(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Deterministic serialization (wall-clock time excluded), with the
        extremal ideals' generator lists read from `_names`."""
        names = _names(self.n, self.d)
        return report_json(self,
                           extremal=[_subset_gens(names, i) for i in self.extremal.indices],
                           violations=[{"gens": I, "reg": reg} for I, reg in self.violations])


@functools.cache
def _sweep_tables(n: int, d: int):
    """(d, monomials, containing, position) of the degree-d subset space on
    n variables.  ANDed with an ideal's index, `containing[v]` holds v's
    generators; the index without them is the ideal's restriction to the
    vertices but v.  `position` maps each monomial to its bit."""
    monomials = degree_monomial_masks(n, d)
    containing = tuple(sum(1 << i for i, m in enumerate(monomials) if m >> v & 1) for v in range(n))
    position = {m: i for i, m in enumerate(monomials)}
    return d, monomials, containing, position


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


def _twin(index: int, keys, monomials: tuple[int, ...], position: dict[int, int]) -> int:
    """The subset index of the ideal at `index` with its support vertices
    renumbered 0..m-1 in the order of `keys`, the (-degree, vertex) of each
    support vertex: most generators first, ties by vertex.  In the twin the
    degrees do not increase from vertex 0 on, so it is its own twin."""
    bit = {v: 1 << at for at, (_, v) in enumerate(sorted(keys))}
    twin = 0
    for g in _subset_gens(monomials, index):
        local = 0
        while g:
            one = g & -g
            g ^= one
            local |= bit[one.bit_length() - 1]
        twin |= 1 << position[local]
    return twin


def _linear_reg(index: int, store: bytearray, tables, field: FieldSpec) -> int:
    """reg of the ideal at subset `index` if it is linearly presented, else
    0: read from `store` (value + 1, 0 for not known yet; see the module
    docstring), or found by recursion over its one-vertex restrictions,
    which are read or found the same way, and written into it.  The store
    must reach past `index`; `tables` are `_sweep_tables(n, d)`.

    When every restriction is linearly presented, the value is the twin's,
    read or found as above when the twin lies below `index`.  Otherwise it
    is the largest of d, the restrictions' values and the slots of sigma =
    supp, scanned on the twin's generators, or 0 when m = |supp| > d + 1
    and the scan reaches row m - 1, the slot beta_{1,supp}."""
    if store[index]:
        return store[index] - 1
    d, monomials, containing, position = tables
    best = d
    keys = []  # (-degree, vertex) of each support vertex
    for v, has in enumerate(containing):
        hit = index & has
        if not hit:
            continue
        below = index ^ hit
        value = store[below] - 1
        if value < 0:
            value = _linear_reg(below, store, tables, field)
        if not value:
            break
        if value > best:
            best = value
        keys.append((-hit.bit_count(), v))
    else:
        twin = _twin(index, keys, monomials, position)
        if twin < index:
            value = _linear_reg(twin, store, tables, field)
        else:
            m = len(keys)
            value = _support_regularity(m, _subset_gens(monomials, twin), field, best)
            if m > d + 1 and value >= m - 1:
                value = 0
    store[index] = value + 1
    return value


def _verify_chunk(task):
    """Indices start..end, read and written in the store of the running
    call (`_open_store`); the extremal indices are an `array('q')`."""
    n, d, fieldp, start, end, bound, symmetry = task
    tables = _sweep_tables(n, d)
    field = FieldSpec(fieldp)
    # "orbits": each index but its orbit's least takes the value of a lower image
    perms = _index_perms(n, d) if symmetry == "orbits" else ()
    store = _STORES[n, d, fieldp]
    if len(store) <= end:
        store.extend(bytes(end + 1 - len(store)))
    n2_count = 0
    max_reg = -1
    extremal = array("q")
    violations: list[tuple[int, int]] = []
    for index in range(start, end + 1):
        lower = perms and _lower_image(index, perms)
        reg = _linear_reg(lower or index, store, tables, field)
        if lower:
            store[index] = reg + 1  # a lower image has the same value, as a twin does
        if not reg:
            continue
        n2_count += 1
        if reg > bound:
            violations.append((index, reg))
        if lower:
            continue  # only representatives are listed as extremal
        if reg > max_reg:
            max_reg = reg
            extremal = array("q", [index])
        elif reg == max_reg:
            extremal.append(index)
    return {
        "end": end,
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


# campaign state before the first chunk, under the checkpoint file's key
# names; the file also holds `checked`, always cursor - 1
_START_STATE = {
    "cursor": 1,
    "n2_count": 0,
    "running_max": -1,
    "extremal_so_far": [],
    "violations": [],
}


def _within(value, least, most=math.inf) -> bool:
    return _is_int(value) and least <= value <= most


def _rising(values: list, last: int) -> bool:
    """Whether `values` are ints in 1..last, strictly increasing."""
    return all(_within(i, 1, last) for i in values) and all(map(operator.lt, values, values[1:]))


def _checkpoint_checks(doc: dict, d: int, bound: int, total: int):
    """(key, passed) for each check of a checkpoint's state, in order; each
    is made only after the ones before it passed.  The state of indices
    1..last has at least one extremal ideal exactly when some ideal there
    is linearly presented, a largest regularity of -1 or at least d, and
    at least as many linearly presented ideals as extremal ones and as
    violations, all listed in index order.  A violation's regularity lies
    in bound + 1..running_max, and a running_max above the bound is some
    violation's."""
    last = doc["cursor"] - 1 if _within(doc["cursor"], 1, total + 1) else -1
    yield "cursor", last >= 0
    yield "checked", _within(doc["checked"], last, last)
    top, marks, pairs = doc["running_max"], doc["extremal_so_far"], doc["violations"]
    yield "running_max", _within(top, -1, -1) or _within(top, d)
    yield "extremal_so_far", (isinstance(marks, list) and _rising(marks, last)
                              and bool(marks) == (top >= 0))
    yield "violations", isinstance(pairs, list) and all(
        isinstance(p, list) and len(p) == 2 and _within(p[1], bound + 1, top) for p in pairs
    ) and _rising([p[0] for p in pairs], last)
    yield "running_max", top <= bound or any(p[1] == top for p in pairs)
    count = doc["n2_count"]
    yield "n2_count", _within(count, max(len(marks), len(pairs)), last) and (top >= 0 or count == 0)
    yield "stream_length", "stream_length" not in doc or _within(doc["stream_length"], 0)
    sha = doc.get("stream_sha256")
    yield "stream_sha256", ("stream_sha256" not in doc
                            or isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha))


def _read_checkpoint(path: str, stamp: dict, total: int) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    required = stamp.keys() | _START_STATE.keys() | {"checked"}
    if not isinstance(doc, dict) or not required <= doc.keys():
        raise CheckpointError(f"checkpoint {path} is missing required fields")
    found = {key: doc[key] for key in stamp}
    if found != stamp:
        raise CheckpointError(f"checkpoint {path} was written for run {found}, not {stamp}")
    bound = theorem_bound(stamp["n"], stamp["d"])
    for key, passed in _checkpoint_checks(doc, stamp["d"], bound, total):
        if not passed:
            raise CheckpointError(f"checkpoint {path} has a bad {key}: {doc[key]!r}")
    return doc


def _merge(state: dict, partial: dict) -> dict:
    """The campaign state after the next chunk in index order.  Its
    `extremal_so_far` is a tuple of the extremal `array('q')`s, as
    `_verify_chunk` returned them, of the chunks that reached the running
    max, so a merge appends one array instead of copying the indices kept
    so far.

    Does no I/O and never mutates its arguments, so a state may be shared.
    """
    top = state["running_max"]
    chunk_max = partial["max_reg"]
    extremal = state["extremal_so_far"]
    if chunk_max > top:
        extremal = (partial["extremal"],)
    elif chunk_max == top >= 0:
        extremal = extremal + (partial["extremal"],)
    return {
        "cursor": partial["end"] + 1,
        "n2_count": state["n2_count"] + partial["n2_count"],
        "running_max": max(top, chunk_max),
        "extremal_so_far": extremal,
        "violations": state["violations"] + [list(v) for v in partial["violations"]],
    }


def _stream_lines(names: tuple[str, ...], partial: dict, running_max: int):
    """A chunk's stream records, as encoded lines: its extremal ideals when
    they reach the running max at merge time, then its violations.  Each
    ideal's generators are read from `names` (`_names(n, d)`)."""
    extremal = partial["extremal"] if partial["max_reg"] == running_max else ()
    records = [("extremal", idx, running_max) for idx in extremal]
    records += [("violation", idx, reg) for idx, reg in partial["violations"]]
    for kind, idx, reg in records:
        doc = {"type": kind, "index": idx, "reg": reg, "gens": _subset_gens(names, idx)}
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
    ambient n.  Both are read from one restriction store per call (module
    docstring), which the chunks run in one process share and which is
    dropped when the call ends, normally or by an error.  The summary
    (including the extremal ideals and any violations) is byte-identical
    for any worker count and for checkpointed-and-resumed runs; its
    `extremal` holds subset indices and builds each `Ideal` on access
    (`IndexedIdeals`).  With
    symmetry="orbits" (n <= 7), only the least subset index of each orbit
    under the variable permutations is computed, and each other index takes
    the value of a lower image: counts, violations and stream are those of
    "off", the extremal ideals one per orbit; "off" lists and applies no
    permutation.  In both modes a checkpoint at cursor c describes exactly
    indices 1..c-1 and records the stream's length and hash; a resume
    refuses a stream at least that long whose first bytes do not match, and
    cuts a matching one back, and it refuses a checkpoint whose state
    fields do not fit the run or each other.  The worker pool is
    terminated when the merge ends, normally or by an error (a failed
    checkpoint write, say), so queued chunks are never waited for.
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
        doc = _read_checkpoint(checkpoint_path, stamp, total)
    state = {key: doc.get(key, default) for key, default in _START_STATE.items()}
    state["extremal_so_far"] = (array("q", state["extremal_so_far"]),)
    names = _names(n, d)

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
                for line in _stream_lines(names, partial, state["running_max"]):
                    stream.write(line)
                    sha.update(line)
                stream.flush()
                mark = {"stream_length": stream.tell(), "stream_sha256": sha.hexdigest()}
            if checkpoint_path is not None:
                extremal = list(itertools.chain.from_iterable(state["extremal_so_far"]))
                _write_checkpoint(checkpoint_path,
                                  {**stamp, **state, "checked": state["cursor"] - 1,
                                   "extremal_so_far": extremal, **mark})

    extremal = array("q", itertools.chain.from_iterable(state["extremal_so_far"]))
    pairs = state["violations"]
    violations = tuple(zip(IndexedIdeals(n, d, [i for i, _ in pairs]), [reg for _, reg in pairs]))
    return EnumerationSummary(
        n=n,
        d=d,
        field=field.label,
        total_ideals=total,
        checked=state["cursor"] - 1,
        n2_count=state["n2_count"],
        max_reg=state["running_max"],
        bound=bound,
        extremal=IndexedIdeals(n, d, extremal),
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
    none).  With `multiples[g]` the subset index of the degree-d multiples
    of g, the truncation of I + (g) is the ideal at `index | multiples[g]`,
    and I lies inside (f) when `index & ~multiples[f]` is 0.  Every verdict
    is read from one full-size restriction store (module docstring), filled
    by `_linear_reg` over GF(2), the cheapest field: its verdict rests on
    beta_{1,supp}, which does not depend on the field.
    """
    monomials = _capacity_checked(n, d)
    total = (1 << len(monomials)) - 1
    t0 = time.monotonic()
    store = bytearray([d + 1]) + bytes(total)  # index 0 seeded as by `_open_store`
    linear = functools.partial(_linear_reg, store=store, tables=_sweep_tables(n, d), field=GF2)
    # each f and each gcd(f1, f), of degree >= 1
    multiples = {
        g: sum(1 << i for i, m in enumerate(monomials) if g & ~m == 0)
        for deg in range(1, d + 1) for g in degree_monomial_masks(n, deg)
    }
    f_candidates = [(f, f.bit_count() - 1) for f in multiples if f.bit_count() >= 2]
    pairs_checked = 0
    violations: list[tuple[int, int]] = []
    for index in range(1, total + 1):
        gens = _subset_gens(monomials, index)
        for f, gcd_degree in f_candidates:
            if not index & ~multiples[f] or not linear(index | multiples[f]):
                continue  # I inside (f), or the hypothesis fails
            pairs_checked += 1
            if not any((f1 & f).bit_count() == gcd_degree and linear(index | multiples[f1 & f])
                       for f1 in gens):
                violations.append((index, f))
    return GcdSweepReport(
        n=n,
        d=d,
        ideals=total,
        pairs_checked=pairs_checked,
        witnesses_found=pairs_checked - len(violations),
        violations=tuple(zip(IndexedIdeals(n, d, [i for i, _ in violations]),
                             [Monomial(n, f) for _, f in violations])),
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
