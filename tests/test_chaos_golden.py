"""Chaos golden: every ``run_chaos`` report pinned, key by key.

``tests/golden/chaos_golden.json`` holds ``run_chaos(name, seed=7)`` over
all four schemes for every named scenario, plus the armed variants CI and
the documents quote: ``recovery=True`` on the two budget-exhausting
scenarios, ``ft=True`` on ``rank-death``, and one congestion mode on each
congestion scenario.  A change to how a scenario is spelled must leave
every report identical; only a change *meant* to move the model may
regenerate the fixture, with ``python tests/test_chaos_golden.py``.
"""

import json
import os

import pytest

from repro.core import EXTENDED_SCHEME_NAMES
from repro.faults import SCENARIOS, run_chaos

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "chaos_golden.json")

#: fixture key -> (scenario, run_chaos arming)
CASES = {
    **{name: (name, {}) for name in sorted(SCENARIOS)},
    "link-down-permanent --recovery": ("link-down-permanent", {"recovery": True}),
    "retry-budget --recovery": ("retry-budget", {"recovery": True}),
    "rank-death --ft": ("rank-death", {"ft": True}),
    "incast-n1 --congestion pfc": ("incast-n1", {"congestion": "pfc"}),
    "victim-flow --congestion both": ("victim-flow", {"congestion": "both"}),
    "hotspot-skew --congestion ecn": ("hotspot-skew", {"congestion": "ecn"}),
}


def _report(key):
    name, arming = CASES[key]
    report = run_chaos(name, seed=7, schemes=EXTENDED_SCHEME_NAMES, **arming)
    return json.loads(json.dumps(report))  # the fixture's own spelling


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_fixture_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_chaos_report_matches_golden(key, golden):
    got, want = _report(key), golden[key]
    # key by key first, so a failure names the drifted field and scheme
    for field in want:
        if field != "schemes":
            assert got[field] == want[field], f"{key}: {field} drifted"
    assert list(got["schemes"]) == list(want["schemes"])
    for scheme, entry in want["schemes"].items():
        for field in entry:
            assert got["schemes"][scheme][field] == entry[field], \
                f"{key}: {scheme}.{field} drifted"
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as f:
        json.dump({key: _report(key) for key in sorted(CASES)}, f, indent=1)
        f.write("\n")
