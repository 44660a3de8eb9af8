"""Regenerate ``workloads.json``: the input pools and their golden answers.

    python3 bench/make_golden.py

Run this only when a workload's recipe changes on purpose.  The answers
come from the library as it stands, so check the diff: on an unchanged
recipe every answer must come out the same.  A few identities that must
hold whatever the code does are asserted here (cd = pd(S/I), reg over
GF(p) >= reg over Q, campaign extremal ideals have the campaign's max_reg).
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile

import run
import workloads

# Seeds below were picked so that a default-pool round takes 5-9 s on a
# 2-core machine, i.e. seven to ten rounds per 60 s run.
CAMPAIGN_VERIFY = {"n": 6, "d": 2, "chunk_size": 4096}
CAMPAIGN_FOLLOW_UPS = 256
LARGE_KINDS = ["reg_q", "pd_q", "reg_gfp", "cd"]
POOLS = {
    # pool: (campaign sample seed, large-ideal seeds, seeds of ideals with
    #        a 1.5k-generator dual, seeds of pure ideals whose duals are tested)
    "default": (0, [2, 3], [0], [0]),
    "holdout": (1, [4, 7], [4], [1]),
}


def monomials(n: int, d: int) -> list[int]:
    return [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]


def random_pure(seed: int, n: int, d: int, count=None) -> list[int]:
    rng = random.Random(seed)
    return rng.sample(monomials(n, d), count if count is not None else rng.randint(36, 38))


def entry(lib, ideal, kinds) -> dict:
    answers = {k: workloads.answer(k, ideal, lib) for k in kinds}
    if "cd" in answers and "pd_q" in answers:
        assert answers["cd"] == answers["pd_q"], "cd must equal pd(S/I)"
    if "reg_gfp" in answers:
        assert answers["reg_gfp"] >= answers["reg_q"], "reg over GF(p) below reg over Q"
    return {"n": ideal.ambient, "gens": list(ideal.gen_masks), "answers": answers}


def build(lib, scratch: str) -> dict:
    Ideal = lib.core.Ideal
    verify = workloads.verify_answer(CAMPAIGN_VERIFY, lib, scratch)
    summary_extremal = lib.harness.verify_range(6, 2).extremal
    out = {"campaign": {"verify": verify, "pools": {}}, "large-ideal": {"pools": {}}}
    for pool, (camp, large, big_dual, s2_dual) in POOLS.items():
        sample = random.Random(camp).sample(summary_extremal, CAMPAIGN_FOLLOW_UPS)
        camp_entries = [entry(lib, I, workloads.KINDS) for I in sample]
        assert all(e["answers"]["reg_q"] == verify["max_reg"] for e in camp_entries)
        out["campaign"]["pools"][pool] = camp_entries

        def pure(seed, n, d, count=None):
            return Ideal.from_masks(n, random_pure(seed, n, d, count))

        out["large-ideal"]["pools"][pool] = (
            [entry(lib, pure(s, 12 + s % 2, 3, 2 * (12 + s % 2)), LARGE_KINDS) for s in large]
            + [entry(lib, pure(s, 22 + s % 2, 3), ["dual"]) for s in big_dual]
            + [entry(lib, lib.duality.alexander_dual(pure(s, 11, 4, 250)), ["dual"])
               for s in s2_dual]
        )
    return out


def dump(doc: dict) -> str:
    """JSON with one pool entry per line."""
    lines = ["{"]
    for wi, (name, spec) in enumerate(doc.items()):
        lines.append(f" {json.dumps(name)}: {{")
        if "verify" in spec:
            lines.append(f'  "verify": {json.dumps(spec["verify"], sort_keys=True)},')
        lines.append('  "pools": {')
        for pi, (pool, entries) in enumerate(spec["pools"].items()):
            lines.append(f"   {json.dumps(pool)}: [")
            lines += [f"    {json.dumps(e, sort_keys=True)}," for e in entries]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("   ]" + ("," if pi < len(spec["pools"]) - 1 else ""))
        lines.append("  }")
        lines.append(" }" + ("," if wi < len(doc) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    root = run.BENCH_DIR.parent
    lib = run.import_library(root)
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        doc = build(lib, scratch)
    text = dump(doc)
    assert json.loads(text) == doc
    (run.BENCH_DIR / "workloads.json").write_text(text)


if __name__ == "__main__":
    main()
