"""Seeded inputs, golden answers and timed rounds for the benchmark.

The spec file (``workloads.json``) holds, per workload, pools of ideals.
Each pool entry is an ideal (ambient ``n`` and generator bitmasks) with
the query kinds to run on it and their golden answers.  The ``campaign``
workload also carries one ``verify`` query with the digest of the
summary's ``to_json``.

A run's seed does not change the isomorphism class of any input: it picks,
per entry, an order-preserving embedding of the n variables into up to
n + 8 variables, and the order of the queries.  The answers are invariant
under such embeddings, and so is the work the library does, so every
seed is checked against the same golden answers and runs with different
seeds measure the same work.  A second set of isomorphism classes, the
``holdout`` pool, serves to confirm a claim on inputs it was not tuned on.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

# Query kinds timed per round; each has an end-to-end metric `<kind>_s`.
KINDS = ("reg_q", "pd_q", "reg_gfp", "cd", "dual")
GFP = 32003
MAX_EXTRA_VARS = 8


@dataclass
class Query:
    kind: str  # "verify" or one of KINDS
    ideal: object  # the library's Ideal; None for "verify"
    expect: object  # golden answer, compared with `answer(...)`
    size: int = 1  # ideals handed to the library


@dataclass
class RoundResult:
    wall_s: float
    query_s: list = field(default_factory=list)  # per query, in round order
    ideals: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    cache_entries: int = 0
    layers: dict = field(default_factory=dict)  # per-layer values when traced


def embed(masks, n: int, rng: random.Random) -> tuple[int, list[int]]:
    """Map variable i to the i-th of n sorted random positions among
    n + k variables (k random): canonical order, supports and every
    invariant are unchanged."""
    ambient = n + rng.randint(0, MAX_EXTRA_VARS)
    pos = sorted(rng.sample(range(ambient), n))
    out = []
    for g in masks:
        m = 0
        for i in range(n):
            if g >> i & 1:
                m |= 1 << pos[i]
        out.append(m)
    return ambient, out


def build_queries(spec: dict, workload: str, pool: str, seed: int, lib) -> list[Query]:
    """The round's queries for `seed`, in seeded order."""
    rng = random.Random(f"{workload}/{pool}/{seed}")
    queries = []
    if "verify" in spec:
        v = spec["verify"]
        queries.append(Query("verify", None, v, size=(1 << math.comb(v["n"], v["d"])) - 1))
    for entry in spec["pools"][pool]:
        ambient, gens = embed(entry["gens"], entry["n"], rng)
        ideal = lib.core.Ideal.from_masks(ambient, gens)
        for kind, expect in entry["answers"].items():
            queries.append(Query(kind, ideal, expect))
    rng.shuffle(queries)
    return queries


def answer(kind: str, ideal, lib):
    """The library's answer to one query kind, in golden-file form."""
    if kind == "reg_q":
        return lib.betti.regularity(ideal)
    if kind == "pd_q":
        return lib.betti.projective_dimension(ideal)
    if kind == "reg_gfp":
        return lib.betti.regularity(ideal, lib.complexes.FieldSpec(GFP))
    if kind == "cd":
        return lib.duality.cohomological_dimension(ideal)
    if kind == "dual":
        rep = lib.duality.height_profile(ideal)
        s2, height = lib.duality.is_S2(ideal)
        return {
            "height": rep.height,
            "bigheight": rep.bigheight,
            "dual_gens": len(rep.dual.gens),
            "s2": s2,
            "s2_height": height,
        }
    raise ValueError(f"unknown query kind {kind!r}")


def verify_answer(v: dict, lib, scratch: str) -> dict:
    """One checkpointed, streamed `verify_range` pass, in golden-file form."""
    checkpoint = os.path.join(scratch, "checkpoint.json")
    stream = os.path.join(scratch, "stream.jsonl")
    for path in (checkpoint, stream):
        if os.path.exists(path):
            os.remove(path)
    summary = lib.harness.verify_range(
        v["n"],
        v["d"],
        lib.complexes.RATIONALS,
        jobs=1,
        checkpoint_path=checkpoint,
        stream_path=stream,
        chunk_size=v["chunk_size"],
    )
    return {
        "n": v["n"],
        "d": v["d"],
        "chunk_size": v["chunk_size"],
        "sha256": hashlib.sha256(summary.to_json().encode()).hexdigest(),
        "max_reg": summary.max_reg,
        "extremal": len(summary.extremal),
        "violations": len(summary.violations),
    }


def cache_entries(lib) -> int:
    c = lib.complexes
    return len(c._F2_DATA) + len(c._PROFILES) + len(c._QRANKS)


def run_round(queries: list[Query], lib, scratch: str, tracer=None,
              before_query=None) -> RoundResult:
    """Run every query once, each on cold homology caches, calling
    `before_query()` (untimed) ahead of each.

    With a tracer, the round and each query are recorded as spans.
    """
    res = RoundResult(0.0)

    def body():
        for q in queries:
            if before_query is not None:
                before_query()
            run_query(q, lib, scratch, res, tracer)

    if tracer is not None:
        body = tracer.timed("round", body, span=True)
    t0 = time.perf_counter()
    body()
    res.wall_s = time.perf_counter() - t0
    return res


def run_query(q: Query, lib, scratch: str, res: RoundResult, tracer=None) -> None:
    lib.complexes.clear_caches()
    if q.kind == "verify":
        call = lambda: verify_answer(q.expect, lib, scratch)
    else:
        call = lambda: answer(q.kind, q.ideal, lib)
    if tracer is not None:
        call = tracer.timed("query." + q.kind, call, span=True)
    res.attempted += 1
    res.ideals += q.size
    start = time.perf_counter()
    try:
        got = call()
    except Exception:
        got = None
        traceback.print_exc(file=sys.stderr)
    res.query_s.append(time.perf_counter() - start)
    if got != q.expect:
        res.failures.append(f"{q.kind}: expected {q.expect!r}, got {got!r}")
    res.cache_entries = max(res.cache_entries, cache_entries(lib))
