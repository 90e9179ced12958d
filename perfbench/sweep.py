"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads corpus queries faces-d4 --seeds 1-10

Runs `perfbench/run.py` once per (workload, seed), one after another, with
the `run_seconds` of BENCHMARK.json.  For every end-to-end metric it prints
the median over the seeds and the spread, (q3 - q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`, next to the metric's
bound.  `--trace` adds one traced run per workload.  `--out FILE` writes
the summary, the per-layer numbers and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": last, "record": json.loads(record.read_text())}


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads:
        runs = [run(w, s, bench["run_seconds"], 0) for s in args.seeds]
        rows = {}
        print(f"== {w}: seeds {args.seeds[0]}..{args.seeds[-1]}")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, spr = spread(vals)
            flag = "" if name == "setup_s" or spr <= bound / 3 else "  <-- above bound/3"
            ok &= name == "setup_s" or spr <= bound
            print(f"{name:14s} median {med:.6g}  spread {spr:.4f}  bound {bound}{flag}")
            rows[name] = {"median": med, "spread": spr, "bound": bound, "values": vals}
        correct = all(r["result"]["correct"] for r in runs)
        ok &= correct
        print(f"correct on every seed: {correct}")
        entry = {
            "why": runs[0]["record"]["why"],
            "seeds": args.seeds,
            "end_to_end": rows,
            "info": {k: [r["record"]["info"][k]["value"] for r in runs]
                     for k in runs[0]["record"]["info"]},
        }
        if args.trace:
            traced = run(w, args.seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {
                k: v for k, v in traced["record"]["metrics"].items()
            }
        summary["workloads"][w] = entry
        summary["environment"] = runs[0]["record"]["environment"]
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
