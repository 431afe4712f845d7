import pytest

import zeckblocks.oracle
from zeckblocks.codec import encode


@pytest.fixture(scope="session")
def expansions_100k() -> list[str]:
    """Zeckendorf digit words for every N < 10**5, indexed by N."""
    return [encode(n) for n in range(100_000)]


@pytest.fixture
def budget_check_only(monkeypatch):
    """Make certify fail at once if its budget check lets a budget through:
    the enumeration it would start next raises instead of running for hours
    on a budget whose cap has gone."""
    def enumeration(bound: int) -> list[int]:
        raise AssertionError(f"certify passed its budget check (bound={bound})")
    monkeypatch.setattr(zeckblocks.oracle, "fibbinary_below", enumeration)
