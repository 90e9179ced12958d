"""The traced benchmark still reaches the layers it reports on.

A refactor that routes a query around a traced entry point (`Engine.wall`,
`locate_vertex`, the grid kernel) would zero that layer's counters in
`perfbench/run.py --trace 1` without any other test noticing.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_queries_reach_every_layer():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("engine.wall_calls", "engine.wall_trials", "uniongraph.locate_calls",
                 "oracle.grids"):
        assert metrics[name]["value"] > 0, name
