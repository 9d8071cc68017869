"""Command line interface.

Subcommands: ``algebra`` (element arithmetic), ``resolve`` (minimal
resolutions to chart files), ``verify`` (the check suites, exit code 0 iff
everything passes), ``chart`` (chart file to SVG/TSV).  Window flags are
read only from the command line: ``--max-stem`` (default 24, at most
MAX_STEM = 255, imported from milnor, whose packed coproduct and antipode
terms are sized for it) on all but ``chart``, and ``--max-filt`` (default
16, at most MAX_FILT = 1024) on ``resolve`` alone.  Identical flags produce
identical bytes.  Malformed flags (negative windows or counts, windows
above those bounds, unknown flags, modules or suites, a ``--suite`` list
naming none) exit with code 2 and a usage message that names the bad
token; an unreadable or malformed ``chart --in`` file, or one with a class at
|stem| > MAX_STEM or |s| > MAX_FILT, exits with code 2 and a message on
stderr, as do elements that do not parse, leave the window or are paired
across bidegrees.

Importing this module loads what ``resolve`` and ``verify`` run (charts,
milnor, gf2, modules, resolution, verify); the element grammar is loaded
by ``algebra`` and the SVG writer by ``chart --svg``, when they run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .charts import ChartFormatError, chart_file_dumps, chart_file_loads
from .milnor import (
    MAX_STEM,
    BiDegree,
    BidegreeMismatch,
    MilnorAlgebra,
    WindowError,
    bidegree_basis,
)
from .modules import InvariantViolation, QuotientModule, TrivialModule
from .resolution import PartialResultError, minimal_resolution
from .verify import SUITES, VerifyConfig, run_suites, suite_names


# The largest filtration bound accepted.  Each filtration costs a few KB
# even at stem 0, so an unbounded one could exhaust memory before any output.
MAX_FILT = 1024


def _bounded_int(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


_nonnegative = _bounded_int(0)


def _module_spec(text: str) -> tuple[str, int | None]:
    """``sphere``, ``wbp``, ``kw:N`` or ``wbp:N`` as (kind, N or None)."""
    if text in ("sphere", "wbp"):
        return text, None
    kind, sep, n = text.partition(":")
    if sep and kind in ("kw", "wbp") and n.isdecimal():
        return kind, int(n)
    raise argparse.ArgumentTypeError(
        f"unknown module {text!r}; use sphere, kw:N, wbp or wbp:N with N >= 0"
    )


def _suite_list(text: str) -> list[str]:
    """Comma-separated suite names, each checked before any suite runs.

    A repeated name runs once, where it is first named; a list that names
    no suite is refused.
    """
    names = list(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))
    if not names:
        raise argparse.ArgumentTypeError(f"no suite named in {text!r}")
    try:
        suite_names(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return names


def _add_max_stem(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-stem",
        type=_bounded_int(0, MAX_STEM),
        default=24,
        help=f"stem window (default 24, at most {MAX_STEM})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsteenrod",
        description="exact motivic mod-2 Steenrod algebra computations (tau = 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="element arithmetic in the Milnor basis")
    _add_max_stem(alg)
    algsub = alg.add_subparsers(dest="subcommand", required=True)

    p_basis = algsub.add_parser("basis", help="print the basis of one bidegree")
    p_basis.add_argument("--stem", type=int, required=True)
    p_basis.add_argument("--weight", type=int, required=True)
    p_basis.add_argument("--dual", action="store_true", help="print dual monomials instead")

    p_mul = algsub.add_parser("mul", help="product of two operations")
    p_mul.add_argument("a")
    p_mul.add_argument("b")

    p_anti = algsub.add_parser("antipode", help="antipode of a dual element")
    p_anti.add_argument("x")

    p_conj = algsub.add_parser("conjugate", help="conjugate of an operation")
    p_conj.add_argument("a")

    p_pst = algsub.add_parser("pst", help="the operation dual to xi_t^(2^s)")
    p_pst.add_argument("--s", type=_nonnegative, default=0)
    p_pst.add_argument("--t", type=_bounded_int(1), required=True)

    p_pair = algsub.add_parser("pair", help="pairing of an operation with a dual element")
    p_pair.add_argument("a")
    p_pair.add_argument("x")

    res = sub.add_parser("resolve", help="minimal resolution to a chart file")
    _add_max_stem(res)
    res.add_argument(
        "--max-filt",
        type=_bounded_int(0, MAX_FILT),
        default=16,
        help=f"filtration bound (default 16, at most {MAX_FILT})",
    )
    res.add_argument(
        "--module",
        required=True,
        type=_module_spec,
        help="sphere | kw:N | wbp | wbp:N",
    )
    res.add_argument("--out", default=None, help="output chart JSON path (default stdout)")
    res.add_argument(
        "--max-gens",
        type=_nonnegative,
        default=None,
        help="resource bound per bidegree; exceeding it yields a flagged partial file",
    )
    res.add_argument(
        "--progress",
        action="store_true",
        help="print one JSON line per internal degree on stderr: cells, matrix sizes, "
        "new generators and seconds",
    )

    ver = sub.add_parser("verify", help="run verification suites")
    _add_max_stem(ver)
    ver.add_argument(
        "--suite",
        default="all",
        type=_suite_list,
        help="|".join(sorted(SUITES)) + "|all (comma separated)",
    )
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.add_argument(
        "--progress",
        action="store_true",
        help="print one JSON line per suite on stderr: its name, seconds and verdicts",
    )

    cha = sub.add_parser("chart", help="render a chart file")
    cha.add_argument("--in", dest="infile", required=True)
    cha.add_argument("--svg", default=None)
    cha.add_argument("--tsv", default=None)
    cha.add_argument("--json", dest="json_out", default=None, help="re-serialize for round trips")
    return parser


def _resolve_module(spec: tuple[str, int | None], algebra: MilnorAlgebra):
    kind, n = spec
    if kind == "sphere":
        return TrivialModule(algebra), "sphere"
    if kind == "kw":
        return QuotientModule(algebra, (n + 1,)), f"kw:{n}"
    # wbp kills every P_t of the algebra window (the resolver reads internal
    # stem max-stem + 1), wbp:N kills P_1 .. P_{N+1}; the quotient drops an
    # index past the window, so capping the range there keeps a huge N cheap
    top = algebra.max_stem if n is None else min(n + 1, algebra.max_stem)
    return QuotientModule(algebra, range(1, top + 1)), "wbp" if n is None else f"wbp:{n}"


class _WriteError(Exception):
    """An output file could not be written; the message names it."""


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc


def _json_lines(info: dict) -> None:
    """A progress hook: each dict it is given as one JSON line on stderr."""
    print(json.dumps(info), file=sys.stderr, flush=True)


def cmd_algebra(args) -> int:
    from .grammar import (
        format_dual,
        format_monomial_dual,
        format_monomial_steenrod,
        format_steenrod,
        parse_dual,
        parse_steenrod,
    )

    alg = MilnorAlgebra(args.max_stem)
    if args.subcommand == "basis":
        d = BiDegree(args.stem, args.weight)
        alg.require(d)
        fmt = format_monomial_dual if args.dual else format_monomial_steenrod
        for m in bidegree_basis(d):
            print(fmt(m))
        return 0
    if args.subcommand == "mul":
        a = parse_steenrod(args.a, alg)
        b = parse_steenrod(args.b, alg)
        print(format_steenrod(alg.product(a, b)))
        return 0
    if args.subcommand == "antipode":
        x = parse_dual(args.x, alg)
        print(format_dual(alg.antipode_dual(x)))
        return 0
    if args.subcommand == "conjugate":
        a = parse_steenrod(args.a, alg)
        print(format_steenrod(alg.conjugate(a)))
        return 0
    if args.subcommand == "pst":
        el = alg.pst(args.s, args.t)
        print(format_steenrod(el))
        return 0
    if args.subcommand == "pair":
        a = parse_steenrod(args.a, alg)
        x = parse_dual(args.x, alg)
        print(alg.pair(a, x))
        return 0
    raise SystemExit(f"unknown algebra subcommand {args.subcommand!r}")


def cmd_resolve(args) -> int:
    alg = MilnorAlgebra(args.max_stem + 2)
    module, name = _resolve_module(args.module, alg)
    try:
        _, chart = minimal_resolution(
            module,
            args.max_stem,
            args.max_filt,
            max_gens_per_bidegree=args.max_gens,
            progress=_json_lines if args.progress else None,
        )
        chart.module = name
        _write(args.out, chart_file_dumps(chart))
    except PartialResultError as exc:
        exc.chart.module = name
        _write(args.out, chart_file_dumps(exc.chart, partial=True))
        print(f"warning: {exc}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    config = VerifyConfig(max_stem=args.max_stem)
    names = args.suite
    reports, ok = run_suites(names, config, _json_lines if args.progress else None)
    payload = {
        "max_stem": args.max_stem,
        "suites": names,
        "verdict": "pass" if ok else "fail",
        "reports": [r.to_json() for r in reports],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write(args.out, text)
    for r in reports:
        status = "pass" if r.verdict else "FAIL"
        print(f"[{status}] {r.check} {json.dumps(r.params, sort_keys=True, default=str)}")
    if not ok:
        print("verdict: fail")
        return 1
    print("verdict: pass")
    return 0


def cmd_chart(args) -> int:
    try:
        with open(args.infile, encoding="utf-8") as fh:
            chart, partial = chart_file_loads(fh.read())
        for s, stem, _ in chart.classes:
            # the SVG draws a grid line per stem and per filtration it spans
            if abs(stem) > MAX_STEM or abs(s) > MAX_FILT:
                raise ChartFormatError(
                    f"class (s, stem) = {(s, stem)} outside |stem| <= {MAX_STEM}, |s| <= {MAX_FILT}"
                )
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read chart file {args.infile}: {exc}", file=sys.stderr)
        return 2
    except ChartFormatError as exc:
        print(f"bad chart file: {exc}", file=sys.stderr)
        return 2
    tsv = chart.to_tsv()
    if partial:
        tsv = f"# partial: complete through stem {chart.max_stem}\n" + tsv
    wrote = False
    if args.svg:
        from .svg import render_chart_svg

        _write(args.svg, render_chart_svg(chart, partial))
        wrote = True
    if args.tsv:
        _write(args.tsv, tsv)
        wrote = True
    if args.json_out:
        _write(args.json_out, chart_file_dumps(chart, partial))
        wrote = True
    if not wrote:
        sys.stdout.write(tsv)
    return 0


# the names argparse reads as algebra's subcommand
_ALGEBRA_SUBCOMMANDS = ("basis", "mul", "antipode", "conjugate", "pst", "pair")


def _unknown_algebra_flag(tokens: list[str]) -> str | None:
    """The first flag before algebra's subcommand that is not -h nor a
    prefix of --help or --max-stem.  argparse would read the token after
    it as the subcommand and name that token instead."""
    for tok in tokens:
        if tok in _ALGEBRA_SUBCOMMANDS:
            return None
        name = tok.partition("=")[0]
        prefix = len(name) > 2 and any(f.startswith(name) for f in ("--help", "--max-stem"))
        if tok[:1] == "-" and not tok[1:].isdigit() and name != "-h" and not prefix:
            return tok
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    flag = _unknown_algebra_flag(argv[1:]) if argv[:1] == ["algebra"] else None
    if flag is not None:
        parser.error(f"unrecognized arguments: {flag}")
    args = parser.parse_args(argv)
    try:
        if args.command == "algebra":
            from .grammar import GrammarError

            try:
                return cmd_algebra(args)
            except GrammarError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return 2
        if args.command == "resolve":
            return cmd_resolve(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "chart":
            return cmd_chart(args)
    except WindowError as exc:
        print(f"window error: {exc}", file=sys.stderr)
        return 2
    except BidegreeMismatch as exc:
        print(f"bidegree mismatch: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except _WriteError as exc:
        print(exc, file=sys.stderr)
        return 2
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
