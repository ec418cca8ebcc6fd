"""Exit-criteria suite: every criterion at its pinned reference resolution
and tolerance, one test per criterion, one pass/fail line each."""

import time

import pytest

from oscilab.acceptance import CRITERIA, run_criterion

RUNTIME_BUDGETS = {1: 10.0, 4: 30.0, 6: 120.0, 10: 600.0}


@pytest.mark.parametrize("cid,name", [(c, n) for c, n, _ in CRITERIA])
def test_criterion(cid, name):
    start = time.perf_counter()
    result = run_criterion(cid, tier="reference")
    elapsed = time.perf_counter() - start
    print(result.line())
    assert result.passed, f"criterion {cid} ({name}) failed: {result.details}"
    if cid in RUNTIME_BUDGETS:
        assert elapsed < RUNTIME_BUDGETS[cid], f"criterion {cid} exceeded its runtime budget"
