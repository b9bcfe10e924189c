"""The ``glk`` command line: every library operation on files or inline text.

Exit codes: 0 success, 1 domain error, 2 parse/usage error, 3 resource
limit.  Every error is one line on stderr, argparse's own usage errors
included; ``-h`` prints help and exits 0.  ``--json`` output is
byte-stable for identical inputs and seeds.  Numeric limits are checked
before any work: a negative ``--max-n``/``--max-depth``/``--max-vertices``/
``--trials`` or a ``--budget``/``--max-states`` below 1 is a usage error
(exit 2).  So is an input or ``--moves`` file that cannot be read or is not
UTF-8, and JSON that nests too deeply or holds an integer too long to
convert.  A state sum over more than ``gf2.STATE_SUM_LIMIT`` vertices is
refused with exit 3 whatever ``--max-n`` says; ``props``, ``writhe``,
``jones``, ``moves sites`` and ``orbit`` refuse a graph of more than
``gf2.DIM_LIMIT`` vertices the same way.  The parser is built once per
process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import chord, gf2, graph, moves, orbit, selftest
from .errors import DomainError, ParseError, ResourceLimitError
from .invariants import DEFAULT_MAX_N, analyze, jones, kauffman_bracket, writhe

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


#: Smallest accepted value of each numeric option (argparse dest names).
_MINIMUM = {
    "max_n": 0,
    "max_depth": 0,
    "max_vertices": 0,
    "budget": 1,
    "max_states": 1,
    "trials": 0,
}


def _check_limits(args: argparse.Namespace) -> None:
    for dest, low in _MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            option = "--" + dest.replace("_", "-")
            raise ParseError(f"{option} must be at least {low}, got {value}")


def _exists(path: Path) -> bool:
    try:
        return path.exists()
    except OSError:  # a name too long for a file, such as a long inline script
        return False


def _read_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (invalid byte at offset {exc.start})")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")


def _read_input(args: argparse.Namespace) -> str:
    if args.inline is not None and args.file is not None:
        raise ParseError("give either -i INLINE or FILE, not both")
    if args.inline is not None:
        return args.inline
    if args.file is not None:
        path = Path(args.file)
        if not _exists(path):
            raise ParseError(f"input file not found: {path}")
        return _read_file(path)
    raise ParseError("no input: give -i INLINE or FILE")


def _load_graph(args: argparse.Namespace) -> graph.LabeledGraph:
    return graph.parse(_read_input(args))


def _load_diagram(args: argparse.Namespace) -> chord.ChordDiagram:
    return chord.parse_diagram(_read_input(args))


def _read_script(value: str) -> list[moves.MoveSite]:
    path = Path(value)
    text = _read_file(path) if _exists(path) else value.replace(";", "\n")
    return moves.parse_script(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError (one line, exit 2) instead of
    printing the usage block and exiting.  Subparsers inherit the class."""

    def error(self, message: str):
        raise ParseError(message)


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", help="input file (.glg graph or .cd diagram)")
    parser.add_argument("-i", "--inline", help="inline input text")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``glk`` parser; built on the first call and shared after it, so
    nothing may modify it (``parse_args`` does not)."""
    top = _Parser(prog="glk", description="graph-link invariants and oracles")
    sub = top.add_subparsers(dest="command", required=True)

    for name, text in (
        ("bracket", "Kauffman bracket of a graph"),
        ("jones", "Jones polynomial of a graph-knot"),
        ("writhe", "writhe number of a graph-knot"),
        ("props", "property report (span, genus, minimality certificate)"),
    ):
        p = sub.add_parser(name, help=text)
        _add_io(p)
        if name != "writhe":  # the only one of the four with no state sum
            p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    p = sub.add_parser("moves", help="apply or list Reidemeister graph-moves")
    p.add_argument("action", choices=("apply", "sites"))
    _add_io(p)
    p.add_argument("--moves", dest="script", help="move script (file or inline; ';' separates inline lines)")

    p = sub.add_parser("orbit", help="bounded BFS over the move graph")
    _add_io(p)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--max-states", type=int, default=10**6)

    p = sub.add_parser("chord", help="chord diagram operations")
    p.add_argument("action", choices=("graph", "bracket", "circles"))
    _add_io(p)
    p.add_argument("--state", default="", help="comma-separated chord ids for 'circles'")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    p = sub.add_parser("realize", help="search for a chord diagram realizing a graph")
    _add_io(p)
    p.add_argument("--budget", type=int, default=None, help="max matchings examined")
    p.add_argument("--max-n", type=int, default=chord.REALIZE_MAX_N)

    p = sub.add_parser("selftest", help="run the reduced property suites")
    p.add_argument("--seed", type=int, default=20120521)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--json", action="store_true")
    return top


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    _check_limits(args)

    if args.command == "bracket":
        poly = kauffman_bracket(_load_graph(args), max_n=args.max_n)
        print(json.dumps(poly.to_json_obj()) if args.json else poly.render())
        return EXIT_OK

    if args.command == "jones":
        poly = jones(_load_graph(args), max_n=args.max_n)
        print(json.dumps(poly.to_json_obj()) if args.json else poly.render())
        return EXIT_OK

    if args.command == "writhe":
        w = writhe(_load_graph(args))
        print(json.dumps({"writhe": w}) if args.json else w)
        return EXIT_OK

    if args.command == "props":
        report = analyze(_load_graph(args), max_n=args.max_n)
        if args.json:
            print(json.dumps(report.to_json_obj()))
        else:
            for key, value in report.to_json_obj().items():
                print(f"{key} = {value}")
        return EXIT_OK

    if args.command == "moves":
        g = _load_graph(args)
        if args.action == "apply":
            if not args.script:
                raise ParseError("moves apply needs --moves SCRIPT")
            result = moves.apply_script(g, _read_script(args.script))
            print(graph.to_json(result) if args.json else graph.serialize(result))
        else:
            gf2.check_dim(g.n)  # the site list grows as n^3
            sites = moves.enumerate_sites(g)
            if args.json:
                print(json.dumps([moves.format_site(s) for s in sites]))
            else:
                for s in sites:
                    print(moves.format_site(s))
        return EXIT_OK

    if args.command == "orbit":
        report = orbit.bfs_orbit(
            _load_graph(args),
            max_vertices=args.max_vertices,
            max_depth=args.max_depth,
            max_states=args.max_states,
        )
        if args.json:
            print(report.to_json())
        else:
            obj = report.to_json_obj()
            print(f"visited = {obj['visited']}")
            print(f"min_vertices = {obj['min_vertices']}")
            print(f"truncated = {obj['truncated']}")
            if obj["witness_path"]:
                print("witness_path:")
                for line in obj["witness_path"].splitlines():
                    print(f"  {line}")
        return EXIT_OK

    if args.command == "chord":
        d = _load_diagram(args)
        if args.action == "graph":
            g = chord.intersection_graph(d)
            print(graph.to_json(g) if args.json else graph.serialize(g))
        elif args.action == "bracket":
            poly = chord.bracket_via_surgery(d, max_n=args.max_n)
            print(json.dumps(poly.to_json_obj()) if args.json else poly.render())
        else:
            try:
                ids = [int(t) for t in args.state.split(",") if t]
            except ValueError:
                raise ParseError(f"--state must be comma-separated chord ids, got {args.state!r}")
            for c in ids:
                if not 1 <= c <= d.n:
                    raise DomainError(f"chord id {c} not in the diagram")
            count = chord.surgery_circle_count(d, ids)
            print(json.dumps({"circles": count}) if args.json else count)
        return EXIT_OK

    if args.command == "realize":
        result = chord.realizability_search(
            _load_graph(args), budget=args.budget, max_n=args.max_n
        )
        found = result.diagram is not None
        if args.json:
            print(
                json.dumps(
                    {
                        "found": found,
                        "diagram": chord.serialize_diagram(result.diagram) if found else None,
                        "exhausted": result.exhausted,
                        "checked": result.checked,
                    }
                )
            )
        elif found:
            print(chord.serialize_diagram(result.diagram))
        else:
            print(f"none (exhausted={str(result.exhausted).lower()}, checked={result.checked})")
        return EXIT_OK

    if args.command == "selftest":
        results = selftest.run_all(seed=args.seed, trials=args.trials)
        failed = any(not r.passed for r in results)
        if args.json:
            print(
                json.dumps(
                    [
                        {"suite": r.name, "trials": r.trials, "failures": r.failures}
                        for r in results
                    ]
                )
            )
        else:
            if args.trials == 0:
                print("warning: 0 trials requested; suites pass vacuously", file=sys.stderr)
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"{r.name}: {status} ({r.trials} trials)")
                for f in r.failures:
                    print(f"  {f}")
        return EXIT_DOMAIN if failed else EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ParseError as exc:
        print(f"glk: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"glk: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"glk: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
