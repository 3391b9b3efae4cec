"""Every mutated schedule of the corpus (``mutated_schedules.py``) gets the
outcome pinned in ``mutated_schedules.json``: the same report or the same
``InvariantViolation`` message, digested per (schedule, mutation) pair."""

import json

from mutated_schedules import FIXTURE, digest, outcomes


def test_every_mutated_schedule_keeps_its_pinned_outcome():
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))
    groups = outcomes()
    assert [(e["schedule"], e["mutation"]) for e in entries] == list(groups)
    moved = [
        f"{e['schedule']} / {e['mutation']}"
        for e, group in zip(entries, groups.values())
        if (len(group), digest(group)) != (e["outcomes"], e["sha256"])
    ]
    assert not moved, f"{len(moved)} pairs have other outcomes:\n" + "\n".join(moved)
    # The corpus reaches both outcomes: reports and violations.
    assert 0 < sum(e["violations"] for e in entries) < sum(e["outcomes"] for e in entries)
