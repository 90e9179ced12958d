"""The three benchmark workloads.

Each workload has `setup(sc, seed)`, run before the timed region, and
`run_pass(sc, state, check_reference)`, which times its operations and
then checks their outputs outside the timed region.  `sc` is a freshly
imported `symconn` package, so every pass starts with empty module caches.

A pass returns a `Pass`: per-operation seconds in a fixed order, which
operations raised, a comparable verdict per operation (passes must agree
exactly), reference agreement counts, check failures and a few
workload-specific figures.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Pass:
    seconds: float  # wall time of the timed region
    op_seconds: list[float]
    op_errors: list[str | None]
    verdicts: list
    agreed: int = 0
    compared: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)  # name -> (value, unit)


def _error_name(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


class Workload:
    name = ""
    why = ""
    preload: tuple[str, ...] = ()  # modules the program imports lazily

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.prefix = "smoke-" if smoke else ""  # keeps smoke records apart


# -- corpus ------------------------------------------------------------------


class Corpus(Workload):
    """Every fixture query through `run_verify`, engine and brute force.

    An operation is one fixture file: the engine and brute-force seconds
    `run_verify` reports for its queries, summed.  Single queries take a
    few milliseconds, and their median moves with the machine's noise far
    more than a file's total does.
    """

    name = "corpus"
    preload = ("sympy",)
    why = (
        "all fixture queries through verify.run_verify from cold caches: the "
        "paper's validation path, dominated by grid builds in the oracle"
    )

    def setup(self, sc, seed: int):
        # the corpus is fixed; the seed selects nothing here
        if self.smoke:
            corpus = OUT / "smoke-corpus"
            corpus.mkdir(parents=True, exist_ok=True)
            for f in corpus.glob("*.json"):
                f.unlink()
            for name in ("ball2.json", "cubic3-d3.json"):
                shutil.copyfile(FIXTURES / name, corpus / name)
        else:
            corpus = FIXTURES
        queries = {}
        for path in sorted(corpus.glob("*.json")):
            count = len(sc.parse_problem(path.read_bytes()).queries)
            if count:
                queries[path.name] = count
        if not queries:
            raise RuntimeError(f"no fixture queries under {corpus}")
        return {"dir": corpus, "queries": queries}

    def run_pass(self, sc, state, check_reference: bool) -> Pass:
        expected = state["queries"]
        n, total = len(expected), sum(expected.values())
        t0 = perf_counter()
        try:
            rep = sc.run_verify(state["dir"])
        except Exception as e:  # one failed call loses every fixture of the pass
            dt = perf_counter() - t0
            err = _error_name(e)
            return Pass(dt, [dt / n] * n, [err] * n, [None] * n, 0, total, [err])
        dt = perf_counter() - t0
        files = [f for f in rep["fixtures"] if f["queries"]]
        rows = [q for f in files for q in f["queries"]]
        out = Pass(
            seconds=dt,
            op_seconds=[
                sum(r["engine_seconds"] + r["brute_force_seconds"] for r in f["queries"])
                for f in files
            ],
            op_errors=[None] * len(files),
            verdicts=[(r["engine"], r["brute_force"]) for r in rows],
            agreed=rep["agreements"],
            compared=rep["total_queries"],
        )
        answered = {f["fixture"]: len(f["queries"]) for f in files}
        if answered != expected:
            out.failures.append(f"run_verify answered {answered}, expected {expected}")
        if not rep["all_agree"]:
            out.failures.append(f"engine and brute force agree on {rep['agreement_rate']}")
        for ex in rep["expectation_failures"]:
            out.failures.append(f"expectation failed: {json.dumps(ex)}")
        out.info = {
            "verify_s": (dt, "s"),
            "engine_s": (sum(r["engine_seconds"] for r in rows), "s"),
            "brute_s": (sum(r["brute_force_seconds"] for r in rows), "s"),
            "queries": (len(rows), "count"),
        }
        return out


# -- queries -----------------------------------------------------------------

# d = 2 and d = 3 systems without EQ constraints.  The d = 2 systems take
# three quarters of the stream, so the median query is a memo hit on split3
# rather than a point between two systems' latencies
ROTATION = ("ball3", "split3", "cubic3-d3", "ball3", "split3", "blob4-d3", "ball3", "split3")
POOL = 12  # points per system
PITCH = Fraction(1, 4)


class Queries(Workload):
    """A seeded stream of feasible query pairs against prebuilt engines.

    Each system's point pool is fixed: POOL feasible sorted lattice points
    that do not depend on the seed.  The seed orders the pool and permutes
    y.  Every pool point is used many times, so the cost of solving each
    point once is the same for every seed; later queries on a point hit the
    engine's memo.
    """

    name = "queries"
    preload = ("sympy",)
    why = (
        "seeded (sorted x, permuted y) pairs from fixed point pools through "
        "Engine.symmetric on d=2 and d=3 systems, graphs built in set-up: the library path"
    )

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.rotation = ("ball3", "cubic3-d3") if smoke else ROTATION
        self.count = 4 if smoke else 240

    def setup(self, sc, seed: int):
        rng = random.Random(seed)
        engines, pools, systems = {}, {}, {}
        for name in dict.fromkeys(self.rotation):
            pf = sc.parse_problem((FIXTURES / f"{name}.json").read_bytes())
            sys_ = pf.system
            if any(c.rel is sc.Relation.EQ for c in sys_.constraints):
                raise RuntimeError(f"{name} has an EQ constraint; lattice points miss it")
            eng = sc.Engine(sys_, sc.build_config(pf.config))
            eng.graph()
            engines[name], systems[name] = eng, sys_
            pools[name] = _lattice_pool(name, sys_)
        # each system walks its pool in a seeded order; round r pairs the
        # j-th point with the (j + r + 1)-th, so every seed touches each
        # point first in the same pattern and only which point and which
        # permutation of y differ
        order = {name: rng.sample(range(POOL), POOL) for name in pools}
        seen = dict.fromkeys(pools, 0)
        stream = []
        for k in range(self.count):
            name = self.rotation[k % len(self.rotation)]
            j = seen[name]
            seen[name] += 1
            r, i = divmod(j, POOL)
            pool, perm = pools[name], order[name]
            x = pool[perm[i]]
            y = list(pool[perm[(i + r + 1) % POOL]])
            rng.shuffle(y)
            stream.append((name, x, tuple(y)))
        return {"engines": engines, "systems": systems, "stream": stream}

    def run_pass(self, sc, state, check_reference: bool) -> Pass:
        engines, stream = state["engines"], state["stream"]
        times, errors, verdicts = [], [], []
        t_start = perf_counter()
        for name, x, y in stream:
            t0 = perf_counter()
            try:
                v = engines[name].symmetric(x, y)
                err = None
            except Exception as e:  # counted in failed_frac, never skipped
                v, err = None, _error_name(e)
            times.append(perf_counter() - t0)
            errors.append(err)
            verdicts.append(v)
        dt = perf_counter() - t_start

        out = Pass(dt, times, errors, [None if v is None else v.connected for v in verdicts])
        cert_bytes = []
        for (name, x, y), v in zip(stream, verdicts):
            if v is None:
                continue
            text = json.dumps(v.certificate)
            cert_bytes.append(len(text))
            if json.loads(text)["connected"] != v.connected:
                out.failures.append(f"{name} {x} {y}: certificate disagrees with verdict")
        if check_reference:
            for (name, x, y), v in zip(stream, verdicts):
                sys_ = state["systems"][name]
                if sys_.n > 3:
                    continue
                out.compared += 1
                if v is None:
                    continue
                try:
                    ref = sc.brute_force_connected(sys_, x, y, engines[name].cfg)
                except Exception:  # a reference that cannot answer does not agree
                    continue
                out.agreed += ref == v.connected
        seen, fresh = set(), 0
        for name, x, y in stream:
            for p in (x, tuple(sorted(y))):
                fresh += (name, p) not in seen
                seen.add((name, p))
        out.info = {
            "seen_point_frac": (1 - fresh / (2 * len(stream)), "ratio"),
            "cert_bytes_max": (max(cert_bytes, default=0), "bytes"),
        }
        return out


def _lattice_pool(name: str, sys_) -> list[tuple[Fraction, ...]]:
    """POOL distinct feasible sorted points of the pitch-1/4 lattice in the box.

    Drawn by rejection on exact membership with a generator seeded by the
    system's name, so the pool does not depend on the benchmark seed.
    """
    rng = random.Random(name)
    lo, hi = sys_.box
    axes = [
        [lo[k] + PITCH * i for i in range(int((hi[k] - lo[k]) / PITCH) + 1)]
        for k in range(sys_.n)
    ]
    pool: dict = {}
    while len(pool) < POOL:
        p = tuple(sorted(rng.choice(axis) for axis in axes))
        if p not in pool and sys_.eval_membership(p)[0]:
            pool[p] = None
    return list(pool)


# -- faces-d4 ----------------------------------------------------------------


def _ball_problem(n: int, h: str, max_depth: int) -> str:
    return json.dumps(
        {
            "n": n,
            "d": 4,
            "constraints": [
                {"coeffs": [[0, 0, 0, 0, 1, 1], [0, 1, 0, 0, -1, 1]], "rel": "GE"}
            ],
            "box": [[-1] * n, [1] * n],
            "config": {"h": h, "max_depth": max_depth},
        }
    )


class FacesD4(Workload):
    """Union graphs of the d = 4 ball 1 - p2 >= 0, several extremal faces each."""

    name = "faces-d4"
    why = (
        "Engine.graph for the d=4 ball on [-1,1]^n, n=5 and 6 (2 and 3 faces): the "
        "only path that glues faces through difference and intersection regions"
    )
    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        # the default depth (5) does not finish in 600 s; the depth is reduced
        self.sizes, self.h, self.max_depth = ((5,), "1/2", 0) if smoke else ((5, 6), "1/4", 1)

    def setup(self, sc, seed: int):
        # the ladder is fixed; the seed selects nothing here
        engines = []
        for n in self.sizes:
            pf = sc.parse_problem(_ball_problem(n, self.h, self.max_depth))
            engines.append((n, sc.Engine(pf.system, sc.build_config(pf.config))))
        return {"engines": engines}

    def run_pass(self, sc, state, check_reference: bool) -> Pass:
        times, errors, graphs = [], [], []
        t_start = perf_counter()
        for n, eng in state["engines"]:
            t0 = perf_counter()
            try:
                g = eng.graph()
                err = None
            except Exception as e:  # counted in failed_frac, never skipped
                g, err = None, _error_name(e)
            times.append(perf_counter() - t0)
            errors.append(err)
            graphs.append(g)
        dt = perf_counter() - t_start
        shape = [
            None if g is None else (len(g.faces), len(g.vertices), len(g.edges), g.component_count)
            for g in graphs
        ]
        out = Pass(dt, times, errors, shape)
        for (n, _), s in zip(state["engines"], shape):
            if s is None:
                continue
            out.compared += 1
            # the ball is convex, so its union graph must have one component
            if s[3] == 1:
                out.agreed += 1
            else:
                out.failures.append(f"n={n}: {s[3]} components, the ball has 1")
            out.info[f"n{n}"] = (
                f"{s[0]} faces, {s[1]} vertices, {s[2]} edges, {s[3]} components", "")
        out.info["graph_s"] = (dt, "s")
        out.info["depth"] = (f"h={self.h}, max_depth={self.max_depth} (reduced)", "")
        return out


WORKLOADS = {w.name: w for w in (Corpus, Queries, FacesD4)}
