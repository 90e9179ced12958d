"""The traced benchmark still reaches the layers it reports on.

A refactor that routes a query around a traced entry point (`Engine.wall`,
`locate_vertex`, the grid kernel) would zero that layer's counters in
`perfbench/run.py --trace 1` without any other test noticing.  A renamed
entry point would crash the traced run; the first test names it.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    # perfbench/tracer.py is loaded by path and only read; symconn is
    # imported fresh in a child process
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(ROOT / 'perfbench' / 'tracer.py')!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import symconn\n"
        "for layer, attrs in tracer.TRACED.items():\n"
        "    mod = getattr(symconn, layer)\n"
        "    for attr in attrs:\n"
        "        owner, _, name = attr.rpartition('.')\n"
        "        holder = vars(getattr(mod, owner)) if owner else vars(mod)\n"
        "        if name not in holder:\n"
        "            print(f'{layer}.{attr}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_traced_queries_reach_every_layer():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("engine.wall_calls", "engine.wall_trials", "uniongraph.locate_calls",
                 "oracle.grids"):
        assert metrics[name]["value"] > 0, name
