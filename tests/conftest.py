import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from latcensus.census import census_records

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def census():
    """Memoized analyzed census per (size, with_con) (records sorted by
    canonical form)."""
    cache: dict[tuple[int, bool], list] = {}

    def get(n: int, with_con: bool = False):
        if (n, with_con) not in cache:
            cache[n, with_con] = census_records(n, with_con=with_con)
        return cache[n, with_con]

    return get
