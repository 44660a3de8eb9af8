"""Batch command-line frontend.

Exit codes: 0 success / verdict true, 1 verdict false, 2 input error,
3 internal or theorem-violation error.  Verdict-style commands separate
"false" from "error" so shell pipelines can branch on the mathematics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .betti import betti_table, regularity
from .bounds import (
    check_corollary1,
    check_theorem1,
    f_bound,
    g_bound,
    sharp_example,
    theorem_bound,
)
from .complexes import RATIONALS, FieldSpec
from .core import (
    Ideal,
    InputError,
    InternalCheckError,
    format_ideal,
    parse_ideal,
    truncation,
    minimal_generators,
)
from .duality import cohomological_dimension, height_profile, is_S2
from .linearity import gcd_witness, is_N2_graph, is_Nk_betti

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_ideal(path: str) -> Ideal:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_ideal(text)


def _field(args) -> FieldSpec:
    return FieldSpec.parse(args.field)


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def cmd_reg(args) -> int:
    ideal = _load_ideal(args.file)
    value = regularity(ideal, _field(args))
    _emit(args, {"regularity": value, "field": _field(args).label}, str(value))
    return EXIT_OK


def cmd_betti(args) -> int:
    ideal = _load_ideal(args.file)
    table = betti_table(ideal, _field(args), fine=args.fine, quotient=args.quotient)
    if args.json:
        print(table.to_json())
    else:
        print(table.format_grid())
    return EXIT_OK


def cmd_n2(args) -> int:
    ideal = _load_ideal(args.file)
    ok, witness = is_N2_graph(ideal)
    if ok:
        _emit(args, {"n2": True}, "true")
        return EXIT_OK
    doc = {"n2": False, "witness": {"u": str(witness[0]), "v": str(witness[1])}}
    _emit(args, doc, f"false  witness: ({witness[0]}, {witness[1]})")
    return EXIT_FALSE


def cmd_nk(args) -> int:
    ideal = _load_ideal(args.file)
    ok = is_Nk_betti(ideal, args.k, _field(args))
    _emit(args, {"k": args.k, "nk": ok}, "true" if ok else "false")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_dual(args) -> int:
    ideal = _load_ideal(args.file)
    report = height_profile(ideal)
    if args.json:
        print(report.to_json())
    else:
        print(format_ideal(report.dual), end="")
        print(f"# height {report.height}  bigheight {report.bigheight}  pure {report.pure}")
    return EXIT_OK


def cmd_s2(args) -> int:
    ideal = _load_ideal(args.file)
    ok, c = is_S2(ideal, _field(args))
    _emit(args, {"s2": ok, "height": c}, f"{'true' if ok else 'false'}  height {c}")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_cd(args) -> int:
    ideal = _load_ideal(args.file)
    value = cohomological_dimension(ideal, _field(args))
    _emit(args, {"cd": value, "field": _field(args).label}, str(value))
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.table:
        n_max = args.n_max if args.n_max is not None else args.d + 10
        if n_max < args.d:
            raise InputError(f"--n-max {n_max} is below d={args.d}")
        ns = list(range(args.d, n_max + 1))
        fs = [f_bound(n, args.d) for n in ns]
        gs = [g_bound(n, args.d) for n in ns]
        if args.json:
            print(json.dumps({"d": args.d, "n": ns, "f": fs, "g": gs}, sort_keys=True))
        else:
            width = max(len(str(x)) for x in ns + fs + gs) + 2
            label = max(len(f"f(n,{args.d})"), len("n")) + 2
            print("n".ljust(label) + "".join(str(x).rjust(width) for x in ns))
            print(f"f(n,{args.d})".ljust(label) + "".join(str(x).rjust(width) for x in fs))
            print(f"g(n,{args.d})".ljust(label) + "".join(str(x).rjust(width) for x in gs))
        return EXIT_OK
    if args.n is None:
        raise InputError("bound requires --n (or --table)")
    doc = {
        "n": args.n,
        "d": args.d,
        "f": f_bound(args.n, args.d),
        "g": g_bound(args.n, args.d),
        "bound": theorem_bound(args.n, args.d),
    }
    _emit(args, doc, f"f={doc['f']}  g={doc['g']}  bound=max(d,f)={doc['bound']}")
    return EXIT_OK


def cmd_sharp(args) -> int:
    ideal = sharp_example(args.n, args.d)
    if args.json:
        print(json.dumps(
            {"n": args.n, "d": args.d, "gens": [str(g) for g in ideal.gens],
             "reg": f_bound(args.n, args.d)},
            sort_keys=True,
        ))
    else:
        print(format_ideal(ideal), end="")
        print(f"# reg {f_bound(args.n, args.d)} = f({args.n},{args.d})")
    return EXIT_OK


def cmd_check(args) -> int:
    ideal = _load_ideal(args.file)
    report = check_theorem1(ideal, _field(args), use_support=args.support)
    if args.json:
        print(report.to_json())
    else:
        print(
            f"reg {report.reg}  bound max({report.d}, f({report.n},{report.d})={report.f_value})"
            f" = {report.bound}  holds {report.theorem_holds}  tight {report.tight}"
        )
    return EXIT_OK if report.theorem_holds else EXIT_FALSE


def cmd_check_s2(args) -> int:
    ideal = _load_ideal(args.file)
    report = check_corollary1(ideal, _field(args), use_support=args.support)
    if args.json:
        print(report.to_json())
    else:
        print(
            f"cd {report.reg}  bound max({report.d}, f({report.n},{report.d})={report.f_value})"
            f" = {report.bound}  g {report.g_value}  holds {report.theorem_holds}"
            f"  tight {report.tight}"
        )
    return EXIT_OK if report.theorem_holds else EXIT_FALSE


def cmd_verify(args) -> int:
    summary = harness.verify_range(
        args.n,
        args.d,
        field=_field(args),
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        chunk_size=args.chunk_size,
        symmetry=args.symmetry,
        stream_path=args.stream,
    )
    if args.json:
        print(summary.to_json())
    else:
        print(
            f"n={summary.n} d={summary.d} field={summary.field}: "
            f"{summary.checked}/{summary.total_ideals} checked, "
            f"{summary.n2_count} linearly presented, max_reg={summary.max_reg} "
            f"(bound {summary.bound}), violations={len(summary.violations)}, "
            f"elapsed {summary.elapsed:.1f}s"
        )
    return EXIT_OK if summary.violations_empty else EXIT_FALSE


def cmd_gcd_sweep(args) -> int:
    report = harness.gcd_lemma_sweep(args.n, args.d, _field(args))
    if args.json:
        print(report.to_json())
    else:
        print(
            f"n={report.n} d={report.d}: {report.ideals} ideals, "
            f"{report.pairs_checked} qualifying (I, f) pairs, "
            f"{report.witnesses_found} witnesses, "
            f"{len(report.violations)} violations, elapsed {report.elapsed:.1f}s"
        )
    return EXIT_OK if report.violations_empty else EXIT_FALSE


def cmd_search(args) -> int:
    report = harness.open_case_search(
        args.n, args.d, samples=args.samples, seed=args.seed, field=_field(args)
    )
    if args.json:
        print(report.to_json())
    else:
        best = " ".join(str(g) for g in report.best.gens) if report.best else "-"
        print(
            f"n={report.n} d={report.d}: {report.samples} samples, "
            f"{report.n2_count} linearly presented, max_reg={report.max_reg} "
            f"(bound {report.bound})\nbest: {best}"
        )
    return EXIT_OK


def cmd_paper_suite(args) -> int:
    """Golden-value suite: every built-in literature value, one line each."""
    results: list[tuple[str, bool]] = []

    def record(name: str, ok: bool) -> None:
        results.append((name, bool(ok)))

    record("f(4,5) = 0", f_bound(4, 5) == 0)
    record("f(10,5) = 7", f_bound(10, 5) == 7)
    record("g(10,5) = 8", g_bound(10, 5) == 8)
    record("g(11,5) = 9", g_bound(11, 5) == 9)
    record(
        "d=5 table row f, n=5..15",
        [f_bound(n, 5) for n in range(5, 16)] == [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11],
    )
    record(
        "d=5 table row g, n=5..15",
        [g_bound(n, 5) for n in range(5, 16)] == [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11],
    )

    ideal, f, g = harness.remark_example()
    record("remark ideal: reg = 4", regularity(ideal, RATIONALS) == 4)
    record(
        "remark ideal: linear resolution (N_k for all k)",
        all(is_Nk_betti(ideal, k, RATIONALS) for k in (2, 8)),
    )
    trunc = truncation(minimal_generators(list(ideal.gens) + [g]), 4)
    record("remark truncation with g: graph criterion fails", not is_N2_graph(trunc)[0])
    record(
        "remark truncation with g: Betti criterion fails",
        not is_Nk_betti(trunc, 2, RATIONALS),
    )
    report = check_theorem1(ideal, RATIONALS)
    record(
        "remark ideal: reg 4 <= max(4, f(8,4)=5), not tight",
        report.f_value == 5 and report.theorem_holds and not report.tight,
    )
    f1, gw = gcd_witness(ideal, f)
    record("remark gcd witness has degree deg(f) - 1 = 3", gw.degree == 3)

    sharp = sharp_example(6, 3)
    record(
        "sharp example n=6, d=3: linearly presented with reg 4 = f(6,3)",
        is_N2_graph(sharp)[0] and regularity(sharp, RATIONALS) == 4 and f_bound(6, 3) == 4,
    )
    from .duality import alexander_dual

    record(
        "dual of remark ideal: cd = 4",
        cohomological_dimension(alexander_dual(ideal), RATIONALS) == 4,
    )
    summary = harness.verify_range(4, 3)
    record(
        "d+1 variables, d=3: every pure ideal has reg 3",
        summary.max_reg == 3 and summary.n2_count <= summary.checked
        and all(
            regularity(i, RATIONALS) == 3
            for i in harness.enumerate_pure_ideals(4, 3)
        ),
    )

    all_ok = all(ok for _, ok in results)
    if args.json:
        print(json.dumps(
            {"results": [{"name": n, "pass": ok} for n, ok in results], "pass": all_ok},
            sort_keys=True,
        ))
    else:
        for name, ok in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        print(f"{sum(ok for _, ok in results)}/{len(results)} passed")
    return EXIT_OK if all_ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monomial-lab",
        description="Exact computations with squarefree monomial ideals.",
    )
    parser.add_argument(
        "--field",
        default="q",
        help="coefficient field: 'q' (default) or 'p:<prime>'",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("reg", cmd_reg, help="Castelnuovo-Mumford regularity of an ideal file")
    p.add_argument("file")

    p = add("betti", cmd_betti, help="Betti table")
    p.add_argument("file")
    p.add_argument("--fine", action="store_true", help="include vertex-subset grading")
    p.add_argument("--quotient", action="store_true", help="table of S/I instead of I")

    p = add("n2", cmd_n2, help="linear presentation via the generator-graph criterion")
    p.add_argument("file")

    p = add("nk", cmd_nk, help="N_k via the Betti criterion")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = add("dual", cmd_dual, help="Alexander dual with height profile")
    p.add_argument("file")

    p = add("s2", cmd_s2, help="Serre S2 test (dual-side criterion)")
    p.add_argument("file")

    p = add("cd", cmd_cd, help="cohomological dimension")
    p.add_argument("file")

    p = add("bound", cmd_bound, help="bound functions f and g")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--table", action="store_true", help="print the f/g grid")
    p.add_argument("--n-max", type=int, dest="n_max")

    p = add("sharp", cmd_sharp, help="sharp example generator (odd d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("check", cmd_check, help="regularity-bound report for an N2 ideal")
    p.add_argument("file")
    p.add_argument("--support", action="store_true",
                   help="evaluate the bound at |supp| instead of the ambient n")

    p = add("check-s2", cmd_check_s2, help="cohomological-dimension report for an S2 ideal")
    p.add_argument("file")
    p.add_argument("--support", action="store_true",
                   help="evaluate the bound at |supp| instead of the ambient n")

    p = add("verify", cmd_verify, help="exhaustive bound verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    # argparse converts a string default only when `verify` runs without --jobs
    p.add_argument("--jobs", type=int, default=os.environ.get("MONOMIAL_LAB_JOBS", "1"))
    p.add_argument("--checkpoint")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--chunk-size", type=int, default=4096, dest="chunk_size")
    p.add_argument("--symmetry", choices=["off", "dedupe", "skip"], default="off")
    p.add_argument("--stream", help="append JSON-lines records to this path")

    p = add("gcd-sweep", cmd_gcd_sweep, help="exhaustive gcd witness sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("search", cmd_search, help="randomized high-regularity search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    add("paper-suite", cmd_paper_suite, help="run the built-in golden-value suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
