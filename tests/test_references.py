"""Short runs held to recorded reference trajectories.

tests/data/references.json was written by tests/make_references.py from an
earlier version of the package whose built-in charts carried hand-written
derivatives; every state and monitor value must still agree to 1e-12
relative.
"""

import json
import math

import pytest

import make_references as mr

TOL = 1e-12

with open(mr.OUT, encoding="utf-8") as _fh:
    REFS = json.load(_fh)


def deviation(got: list, want: list) -> float:
    """Largest |got - want| / max(1, |want|); inf where NaN meets a number."""
    worst = 0.0
    for a, b in zip(got, want):
        if isinstance(b, list):
            worst = max(worst, deviation(a, b))
        elif math.isnan(b) or math.isnan(a):
            if not (math.isnan(a) and math.isnan(b)):
                return math.inf
        else:
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


def worst_deviation(got: dict, want: dict) -> float:
    assert got["truncated"] == want["truncated"]
    assert len(got["states"]) == len(want["states"])
    assert got["times"] == want["times"]
    assert got["monitors"].keys() == want["monitors"].keys()
    return max([deviation(got["states"], want["states"])]
               + [deviation(got["monitors"][k], want["monitors"][k])
                  for k in want["monitors"]])


def test_every_case_recorded():
    assert sorted(REFS) == sorted(mr.case_id(c) for c in mr.cases())


@pytest.mark.parametrize("case", mr.cases(), ids=mr.case_id)
def test_run_matches_reference(case):
    got = mr.record(mr.run(case))
    assert worst_deviation(got, REFS[mr.case_id(case)]) <= TOL


def test_reference_check_sees_a_small_charge_change():
    case = {"model": "magnetic", "chart": "sphere", "potential": False}
    got = mr.record(mr.run(case, L=mr.L + 1e-9))
    assert worst_deviation(got, REFS[mr.case_id(case)]) > TOL
