"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input or
usage.  ``verify --jobs N`` checks with min(N, CPU count) worker processes,
which share one pool for the whole run; the report is the same for any
N >= 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import bijections, harness, jsonio
from .laguerre import psi_fv
from .paths import _tlp_words, expected_endpoints, render_ascii
from .perm import _check_size
from .qseries import baxter_polynomial_rhs

# The closed form's big-int division is quadratic in its operand size, so
# poly's time and memory grow steeply in n: about 5 s and 77 MiB at n = 60,
# 27 s and 163 MiB at n = 80 (Python 3.11, 2 CPUs).  verify's polynomial
# suite builds it at every size up to its n, so verify --n shares the cap.
POLY_MAX_N = 60


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baxlab",
        description="Exact combinatorics of Baxter permutations and lattice-path triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="enumerate non-intersecting path triples")
    p_enum.add_argument("--n", type=int, required=True, help="permutation size (paths have n-1 steps)")
    p_enum.add_argument("--k", type=int, default=None, help="horizontal steps per path (default: all k)")
    p_enum.add_argument(
        "--format", choices=("json", "csv", "count"), default="count", help="output format"
    )

    p_map = sub.add_parser("map", help="apply a map to a permutation")
    p_map.add_argument("--perm", required=True, help="JSON array, or a digit string for n <= 9")
    p_map.add_argument(
        "--to",
        dest="target",
        choices=("gamma", "gamma-prime", "psi", "laguerre"),
        required=True,
    )
    p_map.add_argument("--render", choices=("json", "ascii"), default="json")
    p_map.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the Baxter test for gamma/gamma-prime (paths may intersect)",
    )

    p_invert = sub.add_parser("invert", help="recover the permutation behind a triple")
    p_invert.add_argument(
        "--from",
        dest="source",
        choices=("gamma", "gamma-prime", "psi"),
        required=True,
    )
    p_invert.add_argument("--in", dest="infile", required=True, help="triple JSON file, or - for stdin")

    p_poly = sub.add_parser("poly", help="print the (t, q) refinement of the Baxter count")
    p_poly.add_argument("--n", type=int, required=True, help=f"size, at most {POLY_MAX_N}")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=harness.SUITE_NAMES, required=True)
    p_verify.add_argument("--n", type=int, default=8, help=f"size bound, at most {POLY_MAX_N} (default 8)")
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count (default 1)")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def _cmd_enum(args: argparse.Namespace) -> int:
    _check_size("n", args.n, 1)
    if args.k is not None:
        expected_endpoints(args.n, args.k)  # reject a bad k before any output
    ks = range(args.n) if args.k is None else [args.k]
    triples = (words for k in ks for words in _tlp_words(args.n, k))
    if args.format == "count":
        print(sum(1 for _ in triples))
    elif args.format == "csv":
        print("bottom,middle,top")
        for words in triples:
            print(",".join(words))
    else:
        print("[", end="")
        for i, words in enumerate(triples):
            print(",\n " * (i > 0) + json.dumps(jsonio.triple_to_obj(words)), end="")
        print("]")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    if args.unchecked and args.target not in ("gamma", "gamma-prime"):
        raise ValueError("--unchecked applies only to --to gamma and --to gamma-prime")
    text = args.perm.strip()
    p = jsonio.perm_from_obj(_read_json(text, "permutation") if text.startswith("[") else text)
    if args.target == "laguerre":
        h = psi_fv(p)
        if args.render == "ascii":
            print("word:    " + " ".join(h.word))
            print("weights: " + " ".join(str(w) for w in h.weights))
        else:
            print(json.dumps(jsonio.history_to_obj(h)))
        return 0
    if args.target == "gamma":
        t = bijections.gamma(p, checked=not args.unchecked)
    elif args.target == "gamma-prime":
        t = bijections.gamma_prime(p, checked=not args.unchecked)
    else:
        t = bijections.psi(p)
    if args.render == "ascii":
        print(render_ascii(t))
    else:
        print(json.dumps(jsonio.triple_to_obj(t)))
    return 0


def _read_json(text: str, what: str) -> object:
    """The JSON value of text; ``ValueError`` ``bad {what} JSON: ...`` if it has none."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad {what} JSON: {exc}") from exc


def _cmd_invert(args: argparse.Namespace) -> int:
    if args.infile == "-":
        raw = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="utf-8") as fh:
            raw = fh.read()
    t = jsonio.triple_from_obj(_read_json(raw, "triple"))  # every inverse checks disjointness itself
    fn = {
        "gamma": bijections.gamma_inverse,
        "gamma-prime": bijections.gamma_prime_inverse,
        "psi": bijections.psi_inverse,
    }[args.source]
    p = fn(t)
    print(json.dumps(jsonio.perm_to_obj(p)))
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    if args.n > POLY_MAX_N:
        raise ValueError(f"poly --n is capped at {POLY_MAX_N}, got {args.n}")
    print(json.dumps(jsonio.tqpoly_to_obj(baxter_polynomial_rhs(args.n))))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n > POLY_MAX_N:
        raise ValueError(f"verify --n is capped at {POLY_MAX_N}, got {args.n}")
    report = harness.run_suite(args.suite, args.n, jobs=args.jobs)
    if args.json:
        print(json.dumps(report.to_obj()))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status}  {check.label}: {check.detail}")
        print(
            f"suite {report.suite} (n={report.n}): "
            f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed "
            f"in {report.elapsed_ms:.0f} ms"
        )
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enum": _cmd_enum,
        "map": _cmd_map,
        "invert": _cmd_invert,
        "poly": _cmd_poly,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
