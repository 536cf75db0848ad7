"""Bounded smoke runs of the property oracles (the real campaign is the
``repro fuzz`` CLI; CI runs it separately with a larger budget)."""

import pytest

from repro.fuzz import ORACLES, generate_case, run_fuzz


def test_oracle_registry_covers_every_kind():
    covered = {k for oracle in ORACLES.values() for k in oracle.kinds}
    assert covered == {"valid", "mutated", "noise", "pg", "text"}


def test_smoke_campaign_holds():
    report = run_fuzz(seed=0, cases=50, corpus_dir=None)
    assert report.ok, [str(f) for f in report.failures]
    assert report.cases == 50
    assert report.checks > 0


def test_oracle_runs_are_counted_per_oracle():
    report = run_fuzz(seed=1, cases=20, corpus_dir=None)
    assert report.ok
    assert sum(report.oracle_runs.values()) == report.checks


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_each_oracle_passes_on_matching_case(name):
    oracle = ORACLES[name]
    checked = 0
    for index in range(15):
        case = generate_case(seed=5, index=index)
        if case.kind not in oracle.kinds:
            continue
        assert oracle.fn(case) is None, (name, index)
        checked += 1
    assert checked > 0
