"""Test-wide settings.

Property tests run under a fixed hypothesis profile: examples come from a
derandomized search, nothing is saved to an example database, and no
deadline applies, so every run draws and checks the same examples.
Hypothesis also caches the constants it reads from the source files; that
cache goes to the system temporary directory, not into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symconn-hypothesis")
