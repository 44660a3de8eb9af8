"""Batch command-line frontend.

Exit codes: 0 success / verdict true, 1 verdict false, 2 input error,
3 internal or theorem-violation error.  Verdict-style commands separate
"false" from "error" so shell pipelines can branch on the mathematics.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

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
    InputError,
    InternalCheckError,
    format_ideal,
    parse_ideal,
    truncation,
    minimal_generators,
    to_json,
)
from .duality import alexander_dual, cohomological_dimension, height_profile, is_S2
from .linearity import gcd_witness, is_N2_graph, is_Nk_betti

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _verdict(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_FALSE


# Each command maps (args, ideal) to (a dict or a report with `to_json`,
# plain text, exit code); `ideal` is the parsed FILE argument, None for
# commands without one.  `main` renders the JSON only under --json.


def cmd_value(fn, key, args, ideal):
    """A single invariant of the ideal: `reg` or `cd`."""
    value = fn(ideal, args.field)
    return {key: value, "field": args.field.label}, str(value), EXIT_OK


def cmd_betti(args, ideal):
    table = betti_table(ideal, args.field, fine=args.fine, quotient=args.quotient)
    return table, table.format_grid(), EXIT_OK


def cmd_n2(args, ideal):
    ok, witness = is_N2_graph(ideal)
    if ok:
        return {"n2": True}, "true", EXIT_OK
    doc = {"n2": False, "witness": {"u": witness[0], "v": witness[1]}}
    return doc, f"false  witness: ({witness[0]}, {witness[1]})", EXIT_FALSE


def cmd_nk(args, ideal):
    ok = is_Nk_betti(ideal, args.k, args.field)
    return {"k": args.k, "nk": ok}, "true" if ok else "false", _verdict(ok)


def cmd_dual(args, ideal):
    report = height_profile(ideal)
    human = (format_ideal(report.dual)
             + f"# height {report.height}  bigheight {report.bigheight}  pure {report.pure}")
    return report, human, EXIT_OK


def cmd_s2(args, ideal):
    ok, c = is_S2(ideal)
    return {"s2": ok, "height": c}, f"{'true' if ok else 'false'}  height {c}", _verdict(ok)


def cmd_bound(args, ideal):
    if args.table:
        n_max = args.n_max if args.n_max is not None else args.d + 10
        if n_max < args.d:
            raise InputError(f"--n-max {n_max} is below d={args.d}")
        ns = list(range(args.d, n_max + 1))
        fs = [f_bound(n, args.d) for n in ns]
        gs = [g_bound(n, args.d) for n in ns]
        width = max(len(str(x)) for x in ns + fs + gs) + 2
        label = max(len(f"f(n,{args.d})"), len("n")) + 2
        human = "\n".join(name.ljust(label) + "".join(str(x).rjust(width) for x in row)
                          for name, row in (("n", ns), (f"f(n,{args.d})", fs),
                                            (f"g(n,{args.d})", gs)))
        return {"d": args.d, "n": ns, "f": fs, "g": gs}, human, EXIT_OK
    if args.n is None:
        raise InputError("bound requires --n (or --table)")
    doc = {
        "n": args.n,
        "d": args.d,
        "f": f_bound(args.n, args.d),
        "g": g_bound(args.n, args.d),
        "bound": theorem_bound(args.n, args.d),
    }
    return doc, f"f={doc['f']}  g={doc['g']}  bound=max(d,f)={doc['bound']}", EXIT_OK


def cmd_sharp(args, ideal):
    sharp = sharp_example(args.n, args.d)
    reg = f_bound(args.n, args.d)
    doc = {"n": args.n, "d": args.d, "gens": sharp, "reg": reg}
    return doc, format_ideal(sharp) + f"# reg {reg} = f({args.n},{args.d})", EXIT_OK


def cmd_report(check, name, show_g, args, ideal):
    """The bound report of `check` or `check-s2`: `name` labels the
    invariant, and `show_g` adds g(n, d)."""
    r = check(ideal, args.field, use_support=args.support)
    g = f"  g {r.g_value}" if show_g else ""
    human = (f"{name} {r.reg}  bound max({r.d}, f({r.n},{r.d})={r.f_value}) = {r.bound}{g}"
             f"  holds {r.theorem_holds}  tight {r.tight}")
    return r, human, _verdict(r.theorem_holds)


def cmd_verify(args, ideal):
    summary = harness.verify_range(
        args.n, args.d, field=args.field, jobs=args.jobs, checkpoint_path=args.checkpoint,
        resume=args.resume, chunk_size=args.chunk_size, symmetry=args.symmetry,
        stream_path=args.stream,
    )
    human = (
        f"n={summary.n} d={summary.d} field={summary.field}: "
        f"{summary.checked}/{summary.total_ideals} checked, "
        f"{summary.n2_count} linearly presented, max_reg={summary.max_reg} "
        f"(bound {summary.bound}), violations={len(summary.violations)}, "
        f"elapsed {summary.elapsed:.1f}s"
    )
    return summary, human, _verdict(summary.violations_empty)


def cmd_gcd_sweep(args, ideal):
    report = harness.gcd_lemma_sweep(args.n, args.d)
    human = (
        f"n={report.n} d={report.d}: {report.ideals} ideals, "
        f"{report.pairs_checked} qualifying (I, f) pairs, "
        f"{report.witnesses_found} witnesses, "
        f"{len(report.violations)} violations, elapsed {report.elapsed:.1f}s"
    )
    return report, human, _verdict(report.violations_empty)


def cmd_search(args, ideal):
    report = harness.open_case_search(
        args.n, args.d, samples=args.samples, seed=args.seed, field=args.field
    )
    best = " ".join(str(g) for g in report.best.gens) if report.best else "-"
    human = (
        f"n={report.n} d={report.d}: {report.samples} samples, "
        f"{report.n2_count} linearly presented, max_reg={report.max_reg} "
        f"(bound {report.bound})\nbest: {best}"
    )
    return report, human, EXIT_OK


def cmd_paper_suite(args, ideal):
    """Golden-value suite: every built-in literature value, one line each."""
    remark, f, g = harness.remark_example()
    trunc = truncation(minimal_generators(list(remark.gens) + [g]), 4)
    report = check_theorem1(remark, RATIONALS)
    sharp = sharp_example(6, 3)
    summary = harness.verify_range(4, 3)
    results = [
        ("f(4,5) = 0", f_bound(4, 5) == 0),
        ("f(10,5) = 7", f_bound(10, 5) == 7),
        ("g(10,5) = 8", g_bound(10, 5) == 8),
        ("g(11,5) = 9", g_bound(11, 5) == 9),
        ("d=5 table row f, n=5..15",
         [f_bound(n, 5) for n in range(5, 16)] == [5, 5, 5, 6, 7, 7, 8, 9, 9, 10, 11]),
        ("d=5 table row g, n=5..15",
         [g_bound(n, 5) for n in range(5, 16)] == [5, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11]),
        ("remark ideal: reg = 4", regularity(remark, RATIONALS) == 4),
        ("remark ideal: linear resolution (N_k for all k)",
         all(is_Nk_betti(remark, k, RATIONALS) for k in (2, 8))),
        ("remark truncation with g: graph criterion fails", not is_N2_graph(trunc)[0]),
        ("remark truncation with g: Betti criterion fails",
         not is_Nk_betti(trunc, 2, RATIONALS)),
        ("remark ideal: reg 4 <= max(4, f(8,4)=5), not tight",
         report.f_value == 5 and report.theorem_holds and not report.tight),
        ("remark gcd witness has degree deg(f) - 1 = 3", gcd_witness(remark, f)[1].degree == 3),
        ("sharp example n=6, d=3: linearly presented with reg 4 = f(6,3)",
         is_N2_graph(sharp)[0] and regularity(sharp, RATIONALS) == 4 and f_bound(6, 3) == 4),
        ("dual of remark ideal: cd = 4",
         cohomological_dimension(alexander_dual(remark), RATIONALS) == 4),
        ("d+1 variables, d=3: every pure ideal has reg 3",
         summary.max_reg == 3 and summary.n2_count <= summary.checked
         and all(regularity(i, RATIONALS) == 3 for i in harness.enumerate_pure_ideals(4, 3))),
    ]
    all_ok = all(ok for _, ok in results)
    doc = {"results": [{"name": n, "pass": ok} for n, ok in results], "pass": all_ok}
    human = "".join(f"[{'PASS' if ok else 'FAIL'}] {name}\n" for name, ok in results)
    return doc, human + f"{sum(ok for _, ok in results)}/{len(results)} passed", _verdict(all_ok)


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

    def add(name, func, help, file=False, n_d=False, support=False):
        """Subcommand `name` running `func`, with the FILE argument, the
        required --n and --d, and the --support flag when asked for."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if file:
            p.add_argument("file")
        if n_d:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--d", type=int, required=True)
        if support:
            p.add_argument("--support", action="store_true",
                           help="evaluate the bound at |supp| instead of the ambient n")
        return p

    # built on every call, so a patched `regularity` or `cohomological_dimension` is used
    add("reg", partial(cmd_value, regularity, "regularity"),
        "Castelnuovo-Mumford regularity of an ideal file", file=True)

    p = add("betti", cmd_betti, "Betti table", file=True)
    p.add_argument("--fine", action="store_true", help="include vertex-subset grading")
    p.add_argument("--quotient", action="store_true", help="table of S/I instead of I")

    add("n2", cmd_n2, "linear presentation via the generator-graph criterion", file=True)

    p = add("nk", cmd_nk, "N_k via the Betti criterion", file=True)
    p.add_argument("--k", type=int, required=True)

    add("dual", cmd_dual, "Alexander dual with height profile", file=True)
    add("s2", cmd_s2, "Serre S2 test (dual-side criterion)", file=True)
    add("cd", partial(cmd_value, cohomological_dimension, "cd"), "cohomological dimension",
        file=True)

    p = add("bound", cmd_bound, "bound functions f and g")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--table", action="store_true", help="print the f/g grid")
    p.add_argument("--n-max", type=int, dest="n_max")

    add("sharp", cmd_sharp, "sharp example generator (odd d)", n_d=True)
    add("check", partial(cmd_report, check_theorem1, "reg", False),
        "regularity-bound report for an N2 ideal", file=True, support=True)
    add("check-s2", partial(cmd_report, check_corollary1, "cd", True),
        "cohomological-dimension report for an S2 ideal", file=True, support=True)

    p = add("verify", cmd_verify, "exhaustive bound verification", n_d=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--chunk-size", type=int, default=4096, dest="chunk_size")
    p.add_argument("--symmetry", choices=["off", "orbits"], default="off")
    p.add_argument("--stream", help="append JSON-lines records to this path")

    add("gcd-sweep", cmd_gcd_sweep, "exhaustive gcd witness sweep", n_d=True)

    p = add("search", cmd_search, "randomized high-regularity search", n_d=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    add("paper-suite", cmd_paper_suite, "run the built-in golden-value suite")

    return parser


def main(argv=None) -> int:
    """Run one command.  The only code that reads the ideal file and writes
    the answer to stdout."""
    args = build_parser().parse_args(argv)
    try:
        args.field = FieldSpec.parse(args.field)  # checked for every command
        ideal = None
        if "file" in args:
            with open(args.file, encoding="utf-8") as fh:
                ideal = parse_ideal(fh.read())
        doc, human, code = args.func(args, ideal)
    except (InputError, OSError, UnicodeDecodeError) as exc:  # the file, --stream, --checkpoint
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(doc.to_json() if hasattr(doc, "to_json") else to_json(doc))
    else:
        print(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
