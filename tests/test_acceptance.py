"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with -s to watch the PASS/FAIL lines stream; the identical suite backs
the `polycensus verify` command.
"""

import time

import pytest

from polycensus.verify import CRITERIA


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"c{num:02d}" for num, _, _ in CRITERIA])
def test_criterion(number, name, fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed else "FAIL"
    print(f"{status}  c{number:02d}  {name}: {detail} [{elapsed:.1f}s]")
    assert passed, f"criterion {number} ({name}): {detail}"
