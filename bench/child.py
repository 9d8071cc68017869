"""One cold wsteenrod run in a fresh interpreter: the benchmark's unit of work.

    python3 bench/child.py resolve --module M --max-stem N --max-filt F --out PATH [--spans PATH]
    python3 bench/child.py verify --max-stem N --seed S --out PATH [--spans PATH]

``resolve`` goes through ``wsteenrod.cli.main`` exactly as the command
line does.  ``verify`` calls ``run_suites(["all"], VerifyConfig(...))`` with
the given seed, which the command line cannot pass, and writes the same
report JSON as ``wsteenrod verify --out``.  The library is imported from the
``src`` directory next to this one, never from an installed copy.

The last line of standard output is one JSON object: monotonic clock
readings (comparable with the parent's) at the end of set-up, that is the
first call into minimal_resolution or run_suites, and after the output file
was written and closed; the output's SHA-256; the verify verdict; and, with
--spans, the per-layer totals of the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Every module-level cache of wsteenrod.milnor; all must be empty when the
# timed run starts, or the run is not cold.
COLD_CACHES = (
    "bidegree_basis",
    "basis_index",
    "_xi_exponents",
    "coproduct_monomial",
    "antipode_monomial",
    "algebra",
)


def assert_cold(milnor) -> None:
    warm = [name for name in COLD_CACHES if getattr(milnor, name).cache_info().currsize]
    if warm:
        raise RuntimeError(f"not a cold run: milnor caches already filled: {', '.join(warm)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    res = sub.add_parser("resolve")
    res.add_argument("--module", required=True)
    res.add_argument("--max-stem", type=int, required=True)
    res.add_argument("--max-filt", type=int, required=True)
    ver = sub.add_parser("verify")
    ver.add_argument("--max-stem", type=int, required=True)
    ver.add_argument("--seed", type=int, required=True)
    for p in (res, ver):
        p.add_argument("--out", required=True)
        p.add_argument("--spans", default=None, help="trace, and write the spans here")
    return parser.parse_args(argv)


def run(args, cli, marks: dict) -> tuple[int, str | None]:
    """The timed work; records marks["setup"] at the first library call."""
    if args.command == "resolve":
        inner = cli.minimal_resolution

        def first_call(*a, **kw):
            marks.setdefault("setup", time.monotonic())
            return inner(*a, **kw)

        cli.minimal_resolution = first_call
        try:
            code = cli.main([
                "resolve", "--module", args.module, "--max-stem", str(args.max_stem),
                "--max-filt", str(args.max_filt), "--out", args.out,
            ])
        finally:
            cli.minimal_resolution = inner
        return code, None

    from wsteenrod.verify import VerifyConfig, run_suites

    config = VerifyConfig(max_stem=args.max_stem, seed=args.seed)
    marks["setup"] = time.monotonic()
    reports, ok = run_suites(["all"], config)
    verdict = "pass" if ok else "fail"
    payload = {
        "max_stem": args.max_stem,
        "suites": ["all"],
        "verdict": verdict,
        "reports": [r.to_json() for r in reports],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0, verdict


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import wsteenrod
    from wsteenrod import cli, milnor

    if os.path.dirname(os.path.abspath(wsteenrod.__file__)) != os.path.join(SRC, "wsteenrod"):
        raise RuntimeError(f"wsteenrod imported from {wsteenrod.__file__}, not from {SRC}")
    assert_cold(milnor)
    marks: dict[str, float] = {}
    if args.spans is None:
        code, verdict = run(args, cli, marks)
        marks["done"] = time.monotonic()
        totals = None
    else:
        from tracer import Tracer

        with Tracer() as tracer:
            code, verdict = run(args, cli, marks)
            marks["done"] = time.monotonic()
        totals = tracer.totals()
        tracer.write_spans(args.spans)
    if "setup" not in marks:
        raise RuntimeError("the run never reached minimal_resolution or run_suites")
    with open(args.out, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps({
        "exit": code,
        "setup": marks["setup"],
        "done": marks["done"],
        "sha256": sha,
        "verdict": verdict,
        "layers": totals,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
