"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with -s to watch the PASS/FAIL lines stream; the identical suite backs
the `polycensus verify` command.
"""

import dataclasses
import time

import pytest

from polycensus import verify
from polycensus.census import CountQuery, count_forward
from polycensus.verify import CRITERIA

# the deterministic PASS details of the oracle and pure-power criteria
DETAILS = {
    1: "D_4(10)=1953 D_4(11)=2323 D_4(12)=2875",
    2: "D_6(2)=255 D_6(3)=945 D_6(4)=2133",
    3: "D*_4(2)=180 D*_4(3)=462 D*_4(4)=1440 D*_4(5)=2486",
    6: "power exponent=3.092 (target 3 +- 0.15)",
    7: "power exponent=3.041 (target 3 +- 0.20)",
}


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"c{num:02d}" for num, _, _ in CRITERIA])
def test_criterion(number, name, fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed else "FAIL"
    print(f"{status}  c{number:02d}  {name}: {detail} [{elapsed:.1f}s]")
    assert passed, f"criterion {number} ({name}): {detail}"
    if number in DETAILS:
        assert detail == DETAILS[number]


def test_oracle_loop_reports_the_first_mismatch(monkeypatch):
    # one split of c02 made one off at H = 3: the loop stops there and names it
    oracle = verify.count_bruteforce

    def off_by_one(q):
        r = oracle(q)
        return dataclasses.replace(r, count=r.count + 1) if q.split == (3, 2) and q.H == 3 else r

    monkeypatch.setattr(verify, "count_bruteforce", off_by_one)
    fwd = count_forward(CountQuery(6, 3, True, "split", (3, 2))).count
    assert verify.criterion_2() == (False, f"H=3 split(3, 2): forward={fwd} oracle={fwd + 1}")
