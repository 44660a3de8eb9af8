"""Benchmark runner for `monomial_lab` (stdlib only).

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 60 --trace 0

Workloads (see README.md in this directory):
  campaign     verify_range(6, 2) over Q, checkpointed and streamed, plus
               follow-up queries on 256 of its extremal ideals
  large-ideal  reg / pd / reg over GF(32003) / cd on degree-3 ideals on
               12-13 variables, height and S2 on ideals whose Alexander
               duals have 1.5k and 250 generators

The library is imported afresh from ``src/`` next to this directory
before every round (import, seeded inputs, scratch directory); `setup_s`
is the fastest of these set-ups.  The timed section repeats whole rounds
of the workload's queries, each query started on the quieter CPU, until
the next round would overrun ``--seconds``.  Every answer is checked
against the golden answers in ``workloads.json``.

Times are best-of-rounds: each query's fastest time over the run's rounds,
summed over the round (``wall_s``) or over one query kind (``reg_q_s`` and
so on).  On a shared 2-vCPU host the same round takes 5 s or 8 s depending
on other tenants, and a median follows that load; the fastest instance
of each query does much less so.

With ``--trace 1`` untraced and traced rounds alternate.  The per-layer
metrics are the minimum over traced rounds (counts are the same in every
round), and ``trace.overhead_s`` is the traced minus the untraced
best-of-rounds ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment stamp and failure detail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("campaign", "large-ideal")
WARM_SETUPS = 2  # set-ups before the first round's; the first may compile
MODULES = ("core", "exact_rank", "transversals", "complexes", "betti", "linearity",
           "duality", "harness")

# name -> (unit, better); the end-to-end metrics of the untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ideals_per_s": ("1/s", "higher"),
    **{kind + "_s": ("s", "lower") for kind in workloads.KINDS},
    "peak_rss_mb": ("MB", "lower"),
}


class LibraryMissing(RuntimeError):
    pass


def import_library(root: Path):
    """Fresh import of `monomial_lab` from ``root/src``, and no other copy."""
    src = root / "src"
    if not (src / "monomial_lab" / "__init__.py").is_file():
        raise LibraryMissing(f"no monomial_lab package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "monomial_lab" or m.startswith("monomial_lab.")]:
        del sys.modules[name]
    package = importlib.import_module("monomial_lab")
    if Path(package.__file__).resolve().parent != (src / "monomial_lab").resolve():
        raise LibraryMissing(f"monomial_lab was imported from {package.__file__}, not {src}")
    lib = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module("monomial_lab." + name))
    return lib


def setup(root: Path, spec_path: Path, workload: str, pool: str, seed: int):
    t0 = time.perf_counter()
    lib = import_library(root)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)[workload]
    queries = workloads.build_queries(spec, workload, pool, seed, lib)
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    return time.perf_counter() - t0, lib, queries, scratch


def git_revision(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def bench_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(BENCH_DIR.iterdir()):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp(root: Path, args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "pool": "holdout" if args.holdout else "default",
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(root),
        "bench_digest": bench_digest(),
    }


def _spin() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i & 7
    return time.perf_counter() - t0


class CpuPicker:
    """Pins this process to the allowed CPU that runs a short loop fastest,
    at most once per `interval` seconds.

    On a shared virtual machine a vCPU runs up to a third slower while
    other tenants load its physical core, and vCPUs slow independently.
    """

    def __init__(self, interval: float = 0.5):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = interval
        self.last = -interval

    def __call__(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.last < self.interval:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.last = time.perf_counter()


def timed_rounds(args, fresh):
    """Rounds, each on a fresh set-up, until the next would overrun
    ``--seconds``; returns (untraced, traced, last traced round's spans,
    the round's queries)."""
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, spans = [], [], []
    pick_cpu = CpuPicker()
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        lib, queries, scratch = fresh()
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            restore = tracing.install(tracer, lib)
            try:
                res = workloads.run_round(queries, lib, scratch, tracer, pick_cpu)
            finally:
                restore()
            res.layers = tracing.layer_metrics(tracer, res.cache_entries)
            spans = list(tracer.spans)
            traced.append(res)
        else:
            plain.append(workloads.run_round(queries, lib, scratch, before_query=pick_cpu))
        longest = max(longest, time.perf_counter() - start)
        if (tracer is None or traced) and time.perf_counter() - t0 + longest > args.seconds:
            return plain, traced, spans, queries


def best_of(rounds, queries) -> tuple[float, dict]:
    """Sum over the round's queries of each query's fastest time in
    `rounds`, in total and per query kind."""
    best = [min(r.query_s[i] for r in rounds) for i in range(len(queries))]
    per_kind = dict.fromkeys(workloads.KINDS, 0.0)
    for q, t in zip(queries, best):
        if q.kind in per_kind:
            per_kind[q.kind] += t
    return sum(best), per_kind


def summarize(args, setup_times, queries, plain, traced) -> dict:
    if args.trace:
        out = {name: min(r.layers[name] for r in traced) for name in tracing.PER_LAYER
               if name != "trace.overhead_s"}
        out["trace.overhead_s"] = best_of(traced, queries)[0] - best_of(plain, queries)[0]
        units = tracing.PER_LAYER
    else:
        wall, per_kind = best_of(plain, queries)
        out = {
            "setup_s": min(setup_times),
            "wall_s": wall,
            "ideals_per_s": plain[0].ideals / wall,
            **{k + "_s": v for k, v in per_kind.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {name: {"value": value, "unit": units[name][0]} for name, value in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="run the held-out pool of inputs instead of the default one")
    ap.add_argument("--spec", type=Path, default=BENCH_DIR / "workloads.json",
                    help="workload spec with golden answers")
    ap.add_argument("--spans-out", type=Path,
                    help="with --trace 1, write the last traced round's spans here as JSON")
    args = ap.parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: it skips the library's Euler check "
              "and so times a different program", file=sys.stderr)
        return 2
    root = BENCH_DIR.parent
    pool = "holdout" if args.holdout else "default"
    setup_times, scratches = [], []

    def fresh():
        gc.collect()  # free the previous round's library, for a steady peak RSS
        took, lib, queries, scratch = setup(root, args.spec, args.workload, pool, args.seed)
        setup_times.append(took)
        scratches.append(scratch)
        return lib, queries, scratch

    try:
        for _ in range(WARM_SETUPS):
            fresh()
        stamp = env_stamp(root, args)
        plain, traced, spans, queries = timed_rounds(args, fresh)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in scratches:
            shutil.rmtree(path, ignore_errors=True)
        try:
            (root / ".bench_tmp").rmdir()
        except OSError:
            pass  # absent, or in use by another run
    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    if args.spans_out is not None and spans:
        args.spans_out.write_text(json.dumps(spans, indent=1))
    print(json.dumps({
        "env": stamp,
        "round_walls_s": {"untraced": [r.wall_s for r in plain],
                          "traced": [r.wall_s for r in traced]},
        "queries_per_round": len(queries),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": summarize(args, setup_times, queries, plain, traced),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
