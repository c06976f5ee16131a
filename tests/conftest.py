"""Shared test configuration.

Every randomized test draws from a named seed in SEEDS so reruns are
bit-reproducible; add a new entry instead of hardcoding seeds in tests.
The hypothesis profile below does the same for ``@given`` tests: examples
come from a hash of the test function, not from a fresh random seed or a
saved example database.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

SEEDS = {
    "linalg": 101,
    "freesets": 202,
    "solver": 303,
    "thermo": 404,
    "channels": 505,
    "scenarios": 606,
    "acceptance": 707,
}
