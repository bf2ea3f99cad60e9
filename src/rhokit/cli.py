"""Command-line front end: density / rho / certify / verify / search.

Machine-readable by design: JSON output is key-sorted so identical
invocations are byte-identical; errors go to stderr as one-line JSON with
a stable ``code`` field.  Exit codes: 0 success, 1 inequality failure or
certified-bound discrepancy, 2 usage/parse/domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .catalog import rho_exact
from .constructions import KINDS, ConstructionFamily, certify_lower_bound
from .density import density
from .errors import (
    DiscrepancyError,
    DomainError,
    EnumerationCapError,
    GraphSpecError,
    RhokitError,
)
from .graphs import WeightedGraph, parse_count, parse_graph_spec
from .search import SearchConfig, search_lower_bound
from .verify import SUITES, reports_to_junit, run_all_suites, run_suite


_CSV_COMMANDS = ("certify", "search")


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _fail(code, message, exit_code=2):
    sys.stderr.write(json.dumps({"code": code, "message": message}, sort_keys=True) + "\n")
    return exit_code


def _load_graphon(spec):
    """A .graphon file path, or ``builtin:kind[:p1,p2,...][@scale]``."""
    if not spec.startswith("builtin:"):
        try:
            with open(spec) as fh:
                return WeightedGraph.load(fh)
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
            raise DomainError(f"cannot read graphon file {spec!r}: {exc}") from None
    body = spec[len("builtin:") :]
    scale = 1
    if "@" in body:
        body, scale_s = body.rsplit("@", 1)
        scale = parse_count(scale_s, "scale")
    parts = body.split(":")
    if len(parts) > 2:
        raise DomainError(f"builtin graphon {spec!r} has more than one parameter field")
    kind = parts[0]
    try:
        params = tuple(float(p) for p in parts[1].split(",")) if len(parts) > 1 else ()
    except ValueError:
        raise DomainError(f"builtin graphon parameters {parts[1]!r} are not numbers") from None
    return ConstructionFamily(kind, params).at_scale(scale)


def _comma_list(item):
    """argparse type for a comma-separated list of item(part)."""

    def parse(text):
        try:
            return tuple(item(part) for part in text.split(","))
        except ValueError as exc:  # DomainError included
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _cmd_density(args):
    g = parse_graph_spec(args.graph)
    w = _load_graphon(args.graphon)
    t = density(g, w)
    if args.format == "text":
        print(t)
    else:
        _emit({"graph": args.graph, "graphon": args.graphon, "density": t})
    return 0


def _cmd_rho(args):
    res = rho_exact(args.g, args.h)
    if args.format == "text":
        print(f"rho({args.g}, {args.h}): {res.status}", res.to_json())
    else:
        _emit(res.to_json())
    return 0


def _cmd_certify(args):
    family = ConstructionFamily(args.family, tuple(args.params or ()))
    report = certify_lower_bound(args.g, args.h, family, args.scales, claimed=args.claimed)
    if args.format == "csv":
        report.write_csv(sys.stdout)
    elif args.format == "text":
        print(f"certify {args.g} vs {args.h}: achieved {report.achieved} (gap {report.gap})")
    else:
        _emit(report.to_json())
    return 0


def _cmd_verify(args):
    if args.suite == "all":
        reports = run_all_suites(args.trials, args.seed)
    else:
        reports = [run_suite(args.suite, args.trials, args.seed)]
    if args.junit:
        with open(args.junit, "w") as fh:
            fh.write(reports_to_junit(reports))
    ok = all(r.passed for r in reports)
    if args.format == "text":
        for r in reports:
            print(f"{r.suite}: {'pass' if r.passed else 'FAIL'} "
                  f"({r.evaluated} evaluated, {r.skipped} skipped)")
    else:
        _emit({"suites": [r.to_json() for r in reports], "passed": ok})
    return 0 if ok else 1


def _cmd_search(args):
    cfg = SearchConfig(
        block_counts=args.blocks,
        restarts=args.restarts,
        iterations=args.iterations,
        seed=args.seed,
    )
    result = search_lower_bound(args.g, args.h, cfg)
    if args.out:
        with open(args.out, "w") as fh:
            result.best_graphon.dump(fh)
    if args.format == "csv":
        columns = ("g", "h", "best_ratio", "catalog_upper", "restarts", "blocks")
        row = result.to_json()
        csv.writer(sys.stdout).writerows([columns, [row[c] for c in columns]])
    elif args.format == "text":
        print(f"best ratio {result.best_ratio} (catalog upper {result.catalog_upper})")
    else:
        _emit(result.to_json())
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported like any other malformed input
        raise DomainError(message)


def _build_parser():
    parser = _Parser(
        prog="rhokit",
        description="Homomorphism densities and density domination exponents.",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="csv: certify and search only")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("density", help="t(G, W) for a pattern and a step graphon")
    p.add_argument("graph")
    p.add_argument("--graphon", required=True,
                   help=".graphon file or builtin:kind[:params][@scale]")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("rho", help="catalog value/bounds for rho(G, H)")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("certify", help="certify a lower bound along a scale schedule")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--family", required=True, choices=KINDS)
    p.add_argument("--params", type=float, nargs="*")
    p.add_argument("--scales", required=True, type=_comma_list(lambda s: parse_count(s, "scale")),
                   help="comma-separated scales")
    p.add_argument("--claimed", type=float, default=None)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify", help="run randomized inequality suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(sorted(SUITES)))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--junit", default=None, help="write JUnit XML to this path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="gradient search for a rho lower bound")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--blocks", default=(2, 3), type=_comma_list(int))
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="dump the best graphon to this .graphon file")
    p.set_defaults(fn=_cmd_search)
    return parser


def run_cli(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.format == "csv" and args.subcommand not in _CSV_COMMANDS:
            raise DomainError(f"--format csv is not available for {args.subcommand}")
        return args.fn(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 2
    except GraphSpecError as exc:
        return _fail("graph-spec", str(exc))
    except DiscrepancyError as exc:
        return _fail("discrepancy", str(exc), exit_code=1)
    except EnumerationCapError as exc:
        return _fail("enumeration-cap", str(exc))
    except DomainError as exc:
        return _fail("domain", str(exc))
    except RhokitError as exc:
        return _fail("rhokit", str(exc))
    except FileNotFoundError as exc:
        return _fail("file-not-found", str(exc))


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
