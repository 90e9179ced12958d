"""Orbit connectivity and set connectivity are different questions.

Two points on the circle p_2 = 1 that are mirror images of each other
have the same sorted representative, so their orbits are trivially in
the same quotient component.  Whether the set itself connects them
depends on reaching the diagonal x_1 = x_2: a narrow band |p_1| <=
sqrt(1/2) around the anti-diagonal misses it, a wide band |p_1| <=
sqrt(3) contains it.
"""

import pathlib

from symconn import Engine, build_config, parse_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    pf = parse_problem((ROOT / name).read_bytes())
    return pf, Engine(pf.system, build_config(pf.config))


narrow_pf, narrow = load("circle-arcs.json")
wide_pf, wide = load("circle-arcs-wide.json")

x = narrow_pf.points["x"]          # (-4/5, 3/5), sorted
y = narrow_pf.points["y"]          # (3/5, -4/5), its mirror image
xs, ys = tuple(sorted(x)), tuple(sorted(y))

print("points: x =", [str(v) for v in x], " y =", [str(v) for v in y])
print()

orbit = narrow.canonical(xs, ys)
print("narrow band, orbit test :", orbit.connected)

full = narrow.symmetric(xs, y)
print("narrow band, full test  :", full.connected)
wall = full.certificate["walls"]["1"]
print("  wall x1 = x2 reachable:", wall["connected"],
      "(", len(wall["trials"]), "sampled representatives on the slice)")
print()

full_wide = wide.symmetric(xs, y)
print("wide band, full test    :", full_wide.connected)
witness = full_wide.certificate["walls"]["1"]["witness"]
print("  diagonal witness      :", witness["representative"])
print()
print("same orbit either way; only the wide band lets the set cross the")
print("diagonal, so only there do the two mirror points actually connect")
