"""Command-line interface.

Subcommands: check (connectivity in the set itself; x is sorted and the
same swaps are applied to y), check-orbit (connectivity of orbits, both
points sorted first), wall (can the component of x, sorted first, reach
the wall x_i = x_{i+1}), min-canonical (the point where the fiber of x
meets the extremal faces, with its p_{d+1}), graph (dump the face graph),
verify (engine vs brute force over a fixture directory).

The min-canonical point is the extremal family's p_{d+1} extremum on the
fiber: the minimum for even d, the other end of the range for odd d.  Its
"minimized_power_sum" field is the index d + 1 of that power sum.

Exit codes follow the verdict: 0 connected / all agree, 1 not
connected / disagreement, 2 on any error.  Output is a single JSON
document on stdout so runs can be diffed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .engine import _decimal_json, _point_json, _vertex_json, get_engine
from .errors import (
    DomainError,
    LocateFailure,
    ParseError,
    PreconditionError,
    SolverError,
)
from .polynomials import vandermonde_map
from .problemfile import build_config, parse_point_text, parse_problem
from .vandermonde import min_canonical
from .verify import _sort_and_conjugate, run_verify

__all__ = ["main"]


def _rat_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--grid-h", type=_rat_flag, default=None, metavar="H",
                   help="starting grid pitch (rational, default 1/2)")
    p.add_argument("--eq-delta", type=_rat_flag, default=None, metavar="D",
                   help="thickness of equality constraints (default: track the pitch)")
    p.add_argument("--max-depth", type=int, default=None, metavar="K",
                   help="maximum number of grid refinements (default 5)")


def _load_problem(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(str(e), path) from None
    try:
        return parse_problem(data)
    except ParseError as e:
        raise ParseError(str(e), path) from None


def _resolve_point(spec: str, pf, label: str):
    if spec in pf.points:
        return pf.points[spec]
    path = Path(spec)
    if path.is_file():
        return parse_point_text(path.read_bytes(), pf.system.n, loc=spec)
    if spec.lstrip().startswith("["):
        return parse_point_text(spec, pf.system.n, loc=label)
    raise ParseError(
        f"{spec!r} is neither a named point, an existing file, nor an "
        "inline JSON list",
        label,
    )


def _config(pf, args):
    return build_config(
        pf.config, h=args.grid_h, eq_delta=args.eq_delta, max_depth=args.max_depth
    )


def _emit(doc: dict):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_check(args) -> int:
    pf = _load_problem(args.system)
    x, y = _sort_and_conjugate(
        _resolve_point(args.x, pf, "x"), _resolve_point(args.y, pf, "y")
    )
    eng = get_engine(pf.system, _config(pf, args))
    v = eng.symmetric(x, y)
    _emit({"command": "check", "connected": v.connected, "certificate": v.certificate})
    return 0 if v.connected else 1


def _cmd_check_orbit(args) -> int:
    pf = _load_problem(args.system)
    x = tuple(sorted(_resolve_point(args.x, pf, "x")))
    y = tuple(sorted(_resolve_point(args.y, pf, "y")))
    eng = get_engine(pf.system, _config(pf, args))
    v = eng.canonical(x, y)
    _emit(
        {"command": "check-orbit", "connected": v.connected, "certificate": v.certificate}
    )
    return 0 if v.connected else 1


def _cmd_wall(args) -> int:
    pf = _load_problem(args.system)
    x = tuple(sorted(_resolve_point(args.x, pf, "x")))
    eng = get_engine(pf.system, _config(pf, args))
    v = eng.wall(x, args.index)
    _emit({"command": "wall", "connected": v.connected, "certificate": v.certificate})
    return 0 if v.connected else 1


def _rounded_power_sum(point, k: int) -> Fraction:
    """p_k at an algebraic point, rounded half to even to 9 decimals.

    p_k is bounded by interval arithmetic over enclosures of the
    coordinates, tightened until both ends of the bound round alike, so
    the digits do not depend on the enclosures the point came with.  A
    bound that still straddles a rounding tie at width 10^-96 is taken to
    be that tie, which is where a rational p_k such as 1401/1024 stays.
    """
    eps = Fraction(1, 10**12)
    while True:
        lo = hi = Fraction(0)
        for a, b in point.refine(eps):
            ends = sorted((a**k, b**k))
            lo += 0 if k % 2 == 0 and a < 0 < b else ends[0]
            hi += ends[1]
        down, up = round(lo, 9), round(hi, 9)
        if down == up:
            return down
        if eps < Fraction(1, 10**90):
            return round((down + up) / 2, 9)
        eps = eps**2


def _cmd_min_canonical(args) -> int:
    pf = _load_problem(args.system)
    x = _resolve_point(args.x, pf, "x")
    sys_ = pf.system
    a = vandermonde_map(x, sys_.d)
    cp = min_canonical(sys_.n, sys_.d, a)
    if cp is None:
        raise SolverError("no extremal face meets this fiber")
    eps = Fraction(1, 10**12)
    emb = cp.embedded_point()
    point = emb.approx(eps)
    _emit(
        {
            "command": "min-canonical",
            "fiber": _point_json(a),
            "face": list(cp.lam.parts),
            "type": list(emb.multiplicity_runs()),
            "block_point_decimal": _decimal_json(cp.point.approx(eps)),
            "point_decimal": _decimal_json(point),
            "point_exact": emb.payload(),
            "minimized_power_sum": sys_.d + 1,
            "value_decimal": float(_rounded_power_sum(emb, sys_.d + 1)),
        }
    )
    return 0


def _cmd_graph(args) -> int:
    pf = _load_problem(args.system)
    eng = get_engine(pf.system, _config(pf, args))
    g = eng.graph()
    _emit(
        {
            "command": "graph",
            "faces": [list(lam.parts) for lam in g.faces],
            "vertices": [
                {"index": k, **_vertex_json(g, k)} for k in range(len(g.vertices))
            ],
            "edges": [list(e) for e in g.edges],
            "components": g.component_count,
            "resolutions": eng._graph_json()["resolutions"],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(
        args.corpus,
        h=args.grid_h,
        eq_delta=args.eq_delta,
        max_depth=args.max_depth,
    )
    _emit({"command": "verify", **report})
    return 0 if report["all_agree"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symconn",
        description="Connectivity of symmetric semi-algebraic sets "
        "via dimension reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="are x and y connected inside the set")
    p.add_argument("system", help="problem file (JSON)")
    p.add_argument("x", help="point: name from the file, point file, or inline JSON")
    p.add_argument("y", help="point: name from the file, point file, or inline JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("check-orbit", help="are the orbits of x and y connected")
    p.add_argument("system")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p)
    p.set_defaults(func=_cmd_check_orbit)

    p = sub.add_parser("wall", help="does the component of x reach x_i = x_{i+1}")
    p.add_argument("system")
    p.add_argument("x")
    p.add_argument("index", type=int, help="wall index i, between 1 and n-1")
    _add_common(p)
    p.set_defaults(func=_cmd_wall)

    p = sub.add_parser(
        "min-canonical",
        help="where the fiber of x meets the extremal faces, and its p_{d+1} "
        "(the minimum for even d, the other end of the range for odd d)",
    )
    p.add_argument("system")
    p.add_argument("x")
    p.set_defaults(func=_cmd_min_canonical)

    p = sub.add_parser("graph", help="dump the face graph for a system")
    p.add_argument("system")
    _add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", help="engine vs brute force over a fixture directory")
    p.add_argument("corpus", help="directory of problem files with queries")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        PreconditionError,
        DomainError,
        SolverError,
        LocateFailure,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
