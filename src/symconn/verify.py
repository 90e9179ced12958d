"""Agreement harness: the reduction engine against the brute-force oracle.

`run_verify` walks a directory of problem files, answers every query
twice (once through the face-graph engine, once by gridding the full
ambient set), and reports agreement with wall-clock times.  The two
backends share the oracle configuration, so a disagreement points at
the reduction itself or at a set too thin for the grid, not at
mismatched tolerances; disagreements ship the engine certificate.
"""

from __future__ import annotations

import time
from pathlib import Path

from .compositions import apply_transpositions, sorting_transpositions
from .engine import _point_json, get_engine
from .errors import ParseError
from .oracle import connected, full_space_region
from .problemfile import build_config, parse_problem

__all__ = ["run_verify"]


def _sort_and_conjugate(x, y):
    # sorting x is a symmetry of the set, applied to both query points
    word, xs = sorting_transpositions(x)
    return xs, apply_transpositions(y, word)


def run_verify(corpus_dir, h=None, eq_delta=None, max_depth=None) -> dict:
    """Run every fixture query through both backends and compare."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ParseError(f"corpus directory {root} does not exist", str(root))
    fixtures = []
    disagreements = []
    expectation_failures = []
    total = agreed = 0
    t_start = time.perf_counter()
    for path in sorted(root.glob("*.json")):
        try:
            pf = parse_problem(path.read_bytes())
        except ParseError as e:
            raise ParseError(str(e), f"{path.name}") from None
        cfg = build_config(pf.config, h=h, eq_delta=eq_delta, max_depth=max_depth)
        engine = get_engine(pf.system, cfg)
        rows = []
        fixture_agree = 0
        region = None  # built inside the first query's brute-force timing
        for q in pf.queries:
            xs, ys = _sort_and_conjugate(q.x, q.y)
            t0 = time.perf_counter()
            ev = engine.symmetric(xs, ys)
            t1 = time.perf_counter()
            if region is None:
                region = full_space_region(pf.system)
            bv = connected(region, q.x, q.y, cfg)
            t2 = time.perf_counter()
            agree = ev.connected == bv
            row = {
                "x": q.x_name or _point_json(q.x),
                "y": q.y_name or _point_json(q.y),
                "engine": ev.connected,
                "brute_force": bv,
                "agree": agree,
                "engine_seconds": round(t1 - t0, 6),
                "brute_force_seconds": round(t2 - t1, 6),
            }
            if q.expect is not None:
                row["expect"] = q.expect
                if ev.connected != q.expect:
                    expectation_failures.append(
                        {"fixture": path.name, "x": row["x"], "y": row["y"],
                         "expect": q.expect, "engine": ev.connected}
                    )
            rows.append(row)
            total += 1
            if agree:
                agreed += 1
                fixture_agree += 1
            else:
                disagreements.append(
                    {
                        "fixture": path.name,
                        "x": row["x"],
                        "y": row["y"],
                        "engine": ev.connected,
                        "brute_force": bv,
                        "engine_certificate": ev.certificate,
                    }
                )
        fixtures.append(
            {
                "fixture": path.name,
                "queries": rows,
                "agreement": f"{fixture_agree}/{len(rows)}",
            }
        )
    return {
        "fixtures": fixtures,
        "total_queries": total,
        "agreements": agreed,
        "agreement_rate": f"{agreed}/{total}" if total else "0/0",
        "all_agree": agreed == total,
        "disagreements": disagreements,
        "expectation_failures": expectation_failures,
        "seconds": round(time.perf_counter() - t_start, 6),
    }
