import sys
from pathlib import Path

import pytest

from baxlab import generate_baxter

# baxbench/workloads.py grows seeded Baxter permutations without baxlab; the
# tests at large n import its random_baxter rather than keep a second copy
sys.path.append(str(Path(__file__).resolve().parent.parent / "baxbench"))


class BaxterCache:
    """Memoize the generated Baxter sets; several test modules scan them."""

    def __init__(self):
        self._sets = {}

    def get(self, n):
        if n not in self._sets:
            self._sets[n] = generate_baxter(n)
        return self._sets[n]


@pytest.fixture(scope="session")
def bax():
    return BaxterCache()
