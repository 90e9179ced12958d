"""Problem files: the JSON schema for systems, points, and query lists.

The core schema is

    {"n": 3, "d": 2,
     "constraints": [{"coeffs": [[0, 0, 1, 1], [0, 1, -1, 1]], "rel": "GE"}],
     "box": [[-2, -2, -2], [2, 2, 2]]}

Each coeffs entry lists the d exponents of a power-sum monomial followed
by the numerator and denominator of its rational coefficient; the entry
above reads 1 - Z2.  Optional fields: "points" (named rational vectors),
"queries" (x/y pairs naming points or giving vectors inline, plus an
optional expected verdict), and "config" (oracle settings applied when
the command line does not override them).

Rationals in boxes, points, and config accept integers, two-element
[num, den] lists, and strings like "3", "1/2", or "0.25".  Decimal
strings convert exactly; non-integral JSON floats are rejected, since
they would smuggle binary rounding into an otherwise exact pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import DomainError, ParseError
from .oracle import OracleConfig
from .polynomials import (
    Constraint,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
)

__all__ = [
    "Query",
    "ProblemFile",
    "parse_problem",
    "parse_point_text",
    "build_config",
]

_REL_NAMES = {"GE": Relation.GE, "EQ": Relation.EQ, "GT": Relation.GT}
_CONFIG_KEYS = ("h", "eq_delta", "max_depth")


def _rational(value: Any, loc: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", loc)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != int(value):
            raise ParseError(
                f"non-integral number {value!r}; write it as a string "
                "(\"1/10\" or \"0.1\") for exact parsing",
                loc,
            )
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed rational {value!r}", loc) from None
    if isinstance(value, list) and len(value) == 2:
        num, den = value
        if isinstance(num, int) and isinstance(den, int) and not isinstance(num, bool) and not isinstance(den, bool):
            if den == 0:
                raise ParseError("zero denominator", loc)
            return Fraction(num, den)
    raise ParseError(f"cannot read a rational from {value!r}", loc)


def _integer(value: Any, loc: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", loc)
    return value


def _vector(value: Any, n: int, loc: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise ParseError(f"expected a list of {n} rationals", loc)
    if len(value) != n:
        raise ParseError(f"expected {n} coordinates, got {len(value)}", loc)
    return tuple(_rational(v, f"{loc}[{k}]") for k, v in enumerate(value))


@dataclass(frozen=True)
class Query:
    """One connectivity question: x to y, with an optional expected verdict."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    x_name: str | None = None
    y_name: str | None = None
    expect: bool | None = None


@dataclass(frozen=True)
class ProblemFile:
    system: SymmetricSystem
    points: dict = field(default_factory=dict)
    queries: tuple = ()
    config: dict = field(default_factory=dict)


def parse_problem(data: bytes | str) -> ProblemFile:
    """Parse a problem file; every error carries a schema location."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, f"line {e.lineno}, column {e.colno}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", "")

    n = _integer(obj.get("n"), "n")
    d = _integer(obj.get("d"), "d")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}", "n")
    if d < 1:
        raise ParseError(f"d must be positive, got {d}", "d")
    if d > n:
        raise ParseError(
            f"d={d} exceeds n={n}; power sums above n are dependent on the "
            "first n, rewrite the system with d <= n",
            "d",
        )

    raw_constraints = obj.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise ParseError("constraints must be a list", "constraints")
    constraints = []
    for k, c in enumerate(raw_constraints):
        loc = f"constraints[{k}]"
        if not isinstance(c, dict):
            raise ParseError("each constraint must be an object", loc)
        rel_name = c.get("rel")
        if rel_name not in _REL_NAMES:
            raise ParseError(
                f"rel must be one of GE, EQ, GT, got {rel_name!r}", f"{loc}.rel"
            )
        entries = c.get("coeffs")
        if not isinstance(entries, list) or not entries:
            raise ParseError("coeffs must be a nonempty list", f"{loc}.coeffs")
        terms: dict = {}
        for t, entry in enumerate(entries):
            tloc = f"{loc}.coeffs[{t}]"
            if not isinstance(entry, list) or len(entry) != d + 2:
                raise ParseError(
                    f"each coeffs entry needs {d} exponents plus numerator "
                    f"and denominator ({d + 2} integers)",
                    tloc,
                )
            for v in entry:
                _integer(v, tloc)
            exps = tuple(entry[:d])
            if any(e < 0 for e in exps):
                raise ParseError("exponents must be nonnegative", tloc)
            if entry[d + 1] == 0:
                raise ParseError("zero denominator", tloc)
            coeff = Fraction(entry[d], entry[d + 1])
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        try:
            poly = PowerSumPoly(d, terms)
        except DomainError as e:
            raise ParseError(str(e), f"{loc}.coeffs") from None
        constraints.append(Constraint(poly, _REL_NAMES[rel_name]))

    raw_box = obj.get("box")
    if not isinstance(raw_box, list) or len(raw_box) != 2:
        raise ParseError("box must be [[lo...], [hi...]]", "box")
    lo = _vector(raw_box[0], n, "box[0]")
    hi = _vector(raw_box[1], n, "box[1]")
    try:
        system = SymmetricSystem(
            n=n, d=d, constraints=tuple(constraints), box=(lo, hi)
        )
    except DomainError as e:
        # n, d and the constraints passed above: what is left is the box
        raise ParseError(str(e), "box") from None

    points: dict = {}
    raw_points = obj.get("points", {})
    if not isinstance(raw_points, dict):
        raise ParseError("points must map names to vectors", "points")
    for name, vec in raw_points.items():
        points[name] = _vector(vec, n, f"points.{name}")

    def resolve(spec, loc):
        if isinstance(spec, str):
            if spec not in points:
                raise ParseError(f"unknown point name {spec!r}", loc)
            return points[spec], spec
        return _vector(spec, n, loc), None

    queries = []
    raw_queries = obj.get("queries", [])
    if not isinstance(raw_queries, list):
        raise ParseError("queries must be a list", "queries")
    for k, q in enumerate(raw_queries):
        loc = f"queries[{k}]"
        if not isinstance(q, dict) or "x" not in q or "y" not in q:
            raise ParseError("each query needs x and y", loc)
        xv, xn = resolve(q["x"], f"{loc}.x")
        yv, yn = resolve(q["y"], f"{loc}.y")
        expect = q.get("expect")
        if expect is not None and not isinstance(expect, bool):
            raise ParseError("expect must be a boolean", f"{loc}.expect")
        queries.append(Query(x=xv, y=yv, x_name=xn, y_name=yn, expect=expect))

    config: dict = {}
    raw_config = obj.get("config", {})
    if not isinstance(raw_config, dict):
        raise ParseError("config must be an object", "config")
    for key, val in raw_config.items():
        if key not in _CONFIG_KEYS:
            raise ParseError(
                f"unknown config key {key!r}; allowed: {', '.join(_CONFIG_KEYS)}",
                f"config.{key}",
            )
        if key == "max_depth":
            config[key] = _integer(val, f"config.{key}")
        else:
            config[key] = _rational(val, f"config.{key}")

    return ProblemFile(
        system=system, points=points, queries=tuple(queries), config=config
    )


def parse_point_text(data: bytes | str, n: int, loc: str = "point") -> tuple:
    """Point file: a bare JSON list, or an object with a "point" field."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, f"{loc}: line {e.lineno}, column {e.colno}") from None
    if isinstance(obj, dict):
        if "point" not in obj:
            raise ParseError("point object needs a \"point\" field", loc)
        obj = obj["point"]
    return _vector(obj, n, loc)


def build_config(
    file_config: dict,
    h: Fraction | None = None,
    eq_delta: Fraction | None = None,
    max_depth: int | None = None,
) -> OracleConfig:
    """Oracle settings: defaults, then the file's config, then overrides."""
    base = OracleConfig()
    merged = {
        "h": file_config.get("h", base.h),
        "eq_delta": file_config.get("eq_delta", base.eq_delta),
        "max_depth": file_config.get("max_depth", base.max_depth),
    }
    if h is not None:
        merged["h"] = h
    if eq_delta is not None:
        merged["eq_delta"] = eq_delta
    if max_depth is not None:
        merged["max_depth"] = max_depth
    return OracleConfig(**merged)
