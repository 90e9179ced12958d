"""Test-wide settings.

Property tests run under a fixed hypothesis profile: examples come from a
derandomized search, nothing is saved to an example database, and no
deadline applies, so every run draws and checks the same examples.
Hypothesis also caches the constants it reads from the source files; that
cache goes to the system temporary directory, not into the checkout.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from symconn.realroots import UniPoly, sign_at

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symconn-hypothesis")


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name) wraps owner.name and returns its calls' arguments.

    The list grows by one positional-argument tuple per call, in call
    order; for a method the tuple starts with the instance.
    """

    def count(owner, name):
        seen = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return seen

    return count


def _power_sum_sign(pt, weights, j, c) -> int:
    num = UniPoly([])
    for wk, ck in zip(weights, pt.coords):
        num = num + (ck**j).scale(Fraction(wk))
    num = num - (pt.q0**j).scale(Fraction(c))
    root = pt.root()
    return sign_at(num, root) * sign_at(pt.q0, root) ** j


@pytest.fixture
def power_sum_sign():
    """power_sum_sign(pt, weights, j, c): sign of sum_k w_k z_k^j - c, exactly.

    The power sum is (sum_k w_k q_k^j - c q0^j) / q0^j at the point's root,
    so its sign is that numerator's sign times sign(q0)^j.
    """
    return _power_sum_sign


@pytest.fixture
def power_sum_within():
    """power_sum_within(pt, weights, j, value, tol): decides exactly that
    |sum_k w_k z_k^j - value| < tol at the point."""

    def within(pt, weights, j, value, tol):
        value = Fraction(value)
        return (
            _power_sum_sign(pt, weights, j, value - tol) > 0
            and _power_sum_sign(pt, weights, j, value + tol) < 0
        )

    return within


@pytest.fixture
def coordinate_sign():
    """coordinate_sign(pt, i, offset=0): sign of x_i - offset, exactly.

    x_i - offset is (q_i - offset q0) / q0 at the point's root.
    """

    def sign(pt, i, offset=0):
        root = pt.root()
        num = pt.coords[i] - pt.q0.scale(Fraction(offset))
        return sign_at(num, root) * sign_at(pt.q0, root)

    return sign


@pytest.fixture
def solves_system():
    """solves_system(pt, weights, a): the point solves
    sum_k w_k z_k^j = a_j for j = 1..len(a), exactly."""

    def solves(pt, weights, a):
        return all(
            _power_sum_sign(pt, weights, j, aj) == 0 for j, aj in enumerate(a, start=1)
        )

    return solves
