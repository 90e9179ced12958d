"""Benchmark for symconn: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports `src/symconn` and reads
`fixtures/`).  Passes repeat while they fit in `--seconds`, at least one.
Before every pass the `symconn` modules are dropped and imported again and
sympy's cache is cleared, so each pass starts with every cache of the
program empty; that import and the workload's set-up are timed as
`setup_s`.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of one
traced pass, run after one untraced pass whose time gives the tracing
overhead.  Lines before it print every metric as `name value unit`.  The
full record, environment included, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import OUT, ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"


def drop_program() -> None:
    """Forget every imported symconn module and clear sympy's cache.

    sympy itself stays imported (see `main`).  The garbage of earlier
    passes is collected here, before any clock starts.
    """
    for name in list(sys.modules):
        if name.split(".", 1)[0] == "symconn":
            del sys.modules[name]
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()
    gc.collect()


def run_once(workload, seed: int, check_reference: bool, tracer: Tracer | None = None):
    """Import the program afresh, set up and run one pass.

    Returns (setup seconds, Pass).
    """
    drop_program()
    t0 = perf_counter()
    sc = importlib.import_module("symconn")
    if tracer is not None:
        tracer.install(sc)
    state = workload.setup(sc, seed)
    setup_s = perf_counter() - t0
    try:
        return setup_s, workload.run_pass(sc, state, check_reference)
    finally:
        if tracer is not None:
            tracer.uninstall()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (p, value).

    When no percentile down to p75 qualifies, the maximum is returned as
    p100.
    """
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def check_replay(passes) -> list[str]:
    first = passes[0].verdicts
    return [
        f"pass {k + 1} verdicts differ from pass 1"
        for k, p in enumerate(passes[1:], start=1)
        if p.verdicts != first
    ]


def measure(workload, seed: int, seconds: float):
    """Untraced passes that fit in `seconds`; end-to-end metrics.

    Another pass starts only if a pass as long as the median so far would
    still end within `seconds`; the first pass always runs.
    """
    setups, passes, lengths = [], [], []
    rss = None
    start = perf_counter()
    while not passes or perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = perf_counter()
        setup_s, p = run_once(workload, seed, check_reference=not passes)
        lengths.append(perf_counter() - t0)
        if rss is None:
            rss = peak_rss_mb()  # a single cold pass, as a new process pays
        setups.append(setup_s)
        passes.append(p)
    first = passes[0]
    n_ops = len(first.op_seconds)
    per_op = [statistics.median(p.op_seconds[k] for p in passes) for k in range(n_ops)]
    p_tail, v_tail = tail(per_op)
    failed = sum(e is not None for e in first.op_errors)
    failures = first.failures + check_replay(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (v_tail, "s"),
        "ops_per_s": (n_ops / statistics.median(p.seconds for p in passes), "1/s"),
        "ok_frac": (1 - failed / n_ops, "ratio"),
        "agree_frac": (first.agreed / first.compared if first.compared else 1.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "failed_frac": (failed / n_ops, "ratio"),
        "op_tail_percentile": (p_tail, "%"),
        "ops": (n_ops, "count"),
        "passes": (len(passes), "count"),
        "compared": (first.compared, "count"),
    }
    for key in first.info:
        vals = [p.info[key][0] for p in passes]
        unit = first.info[key][1]
        value = statistics.median(vals) if isinstance(vals[0], (int, float)) else vals[0]
        info[key] = (value, unit)
    errors = sorted({e for e in first.op_errors if e is not None})
    return {
        "correct": not failures,
        "attempted": n_ops * len(passes),
        "failed": sum(e is not None for p in passes for e in p.op_errors),
        "metrics": metrics,
        "info": info,
        "failures": failures,
        "errors": errors,
        "op_seconds": per_op,
    }


def measure_traced(workload, seed: int):
    """One untraced pass, then one traced pass; per-layer metrics.

    Neither pass runs the brute-force reference check, so the trace holds
    only the workload's own calls.
    """
    setup_plain, plain = run_once(workload, seed, check_reference=False)
    t_plain = setup_plain + plain.seconds
    tracer = Tracer()
    setup_traced, traced = run_once(workload, seed, False, tracer)
    t_traced = setup_traced + traced.seconds
    metrics = tracer.per_layer()
    metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    metrics["trace.overhead_frac"] = ((t_traced - t_plain) / t_plain, "ratio")
    failures = plain.failures + traced.failures + check_replay([plain, traced])
    spans = OUT / f"{workload.prefix}spans-{workload.name}-seed{seed}.json"
    tracer.write(spans)
    return {
        "correct": not failures,
        "attempted": 2 * len(plain.op_seconds),
        "failed": sum(e is not None for p in (plain, traced) for e in p.op_errors),
        "metrics": metrics,
        "info": {"spans_file": (str(spans.relative_to(ROOT)), "")},
        "failures": failures,
        "errors": sorted({e for p in (plain, traced) for e in p.op_errors if e}),
    }


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    lines = {
        p.name: sum(1 for _ in p.open())
        for p in sorted((SRC / "symconn").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs that still reach each workload's code")
    args = ap.parse_args(argv)

    if not (SRC / "symconn" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: run from a symconn source checkout; {SRC / 'symconn'} "
              "or fixtures/ is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    # Solver libraries the program imports lazily are imported once, before
    # the first pass: a lazy import would land in the first pass only, and
    # dropping and re-importing sympy leaves garbage that slows later passes.
    for name in workload.preload:
        importlib.import_module(name)
    if args.trace:
        res = measure_traced(workload, args.seed)
    else:
        res = measure(workload, args.seed, args.seconds)

    for name, (value, unit) in {**res["metrics"], **res["info"]}.items():
        print(f"{name} {value} {unit}".rstrip())
    for msg in res["failures"]:
        print(f"check failed: {msg}")
    for msg in res["errors"]:
        print(f"error raised: {msg}")
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **{k: res.get(k) for k in (
            "correct", "attempted", "failed", "failures", "errors", "op_seconds")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in res["info"].items()},
        "environment": environment(),
    }
    name = f"{workload.prefix}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
