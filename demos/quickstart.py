"""Build a system in code and ask an engine the three connectivity questions.

The running example is the pair of slabs p_1^2 >= 1 inside the box
[-2, 2]^3: everything with coordinate sum >= 1 on one side, everything
with coordinate sum <= -1 on the other.
"""

from fractions import Fraction as F

from symconn import (
    Constraint,
    Engine,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
)

# p1^2 - 1 >= 0, written in the power-sum generators Z1, Z2
poly = PowerSumPoly(2, {(2, 0): F(1), (0, 0): F(-1)})
system = SymmetricSystem(
    n=3,
    d=2,
    constraints=(Constraint(poly, Relation.GE),),
    box=make_box(3, -2, 2),
)
# one engine per system: it keeps the face graph and every per-point fact
engine = Engine(system)

ones = (F(1), F(1), F(1))
near = (F(9, 10), F(1), F(11, 10))
negs = (F(-1), F(-1), F(-1))


def show(tag, verdict):
    state = "connected" if verdict.connected else "not connected"
    print(f"{tag}: {state}")


print("system: p1^2 >= 1 in [-2, 2]^3")
print()

# same slab, opposite slab
show("(1,1,1) ~ (0.9,1,1.1)   ", engine.symmetric(ones, near))
show("(1,1,1) ~ (-1,-1,-1)    ", engine.symmetric(ones, negs))

# the orbit coarsening: are the two orbits in one component of the quotient
show("orbits of the same pair ", engine.canonical(ones, negs))

# can the component of (1,1,1) touch the wall x1 = x2
wall = engine.wall(ones, 1)
show("reach wall x1 = x2      ", wall)
witness = wall.certificate["witness"]
print("wall witness point      :", witness["representative"])

# a permuted query: sort it and the verdict is unchanged
scrambled = (F(11, 10), F(1), F(9, 10))
show("(1,1,1) ~ permuted near ", engine.symmetric(ones, scrambled))
