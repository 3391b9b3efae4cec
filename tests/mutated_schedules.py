"""The mutated-schedule corpus: seeded faults put into real schedules, and the
sha256 of what :func:`ctqsched.metrics_from_schedule` makes of each.

Each task set is drawn from a seeded ``random.Random``: 1 to 12 tasks, bursts
up to 30 tu, distinct ids in no numeric order. Its fixed RR (a random
quantum), FCFS and CTQ schedules are each mutated in every way of
``MUTATIONS``: an end shifted or changed, a bad slot, a row swapped, dropped
or duplicated, or a column one row longer or shorter than the other. A
mutation works on copies of the schedule's columns, never on the columns
themselves, and some mutations leave a valid schedule (a swap of two rows of
one task, a slot changed to a task of the same burst).

An outcome is either the report, as plain values, or the exact
``InvariantViolation`` message; any other exception is a fault of the
corpus or of the metrics and propagates. ``tests/mutated_schedules.json``
holds one entry per (schedule, mutation) pair: how many outcomes it has, how
many are violations, and one sha256 over all of them in order, so a change
that moves an outcome names the pairs it moved. The fixture is regenerated
with::

    python tests/mutated_schedules.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from ctqsched import (
    InvariantViolation,
    Schedule,
    TaskSet,
    metrics_from_schedule,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
)

FIXTURE = Path(__file__).with_name("mutated_schedules.json")
SEED = 27
SETS = 100
MUTANTS_EACH = 2  # per schedule and mutation


def _task_set(r: random.Random) -> TaskSet:
    n = r.randint(1, 12)
    bursts = [r.randint(1, r.choice([3, 10, 30])) for _ in range(n)]
    return TaskSet(r.sample(range(3 * n + 2), n), bursts)


def _schedules(tasks: TaskSet, r: random.Random) -> dict[str, Schedule]:
    return {
        "rr": simulate_fixed_rr(tasks, r.randint(1, 8)),
        "fcfs": simulate_fcfs(tasks),
        "ctq": run_ctq(tasks).schedule,
    }


# Each mutation takes a seeded ``random.Random`` and copies of a valid
# schedule's columns, which hold at least one row and every slot 0..n-1,
# and returns the columns to run.


def _shift_end(r, slot, end):
    end[r.randrange(len(end))] += r.choice([-2, -1, 1, 2])
    return slot, end


def _shift_tail(r, slot, end):
    # Every end from one row on moves: the last task over- or under-runs.
    end[r.randrange(len(end)) :] += r.choice([-1, 1, 3])
    return slot, end


def _change_end(r, slot, end):
    end[r.randrange(len(end))] = r.randint(-1, int(end[-1]) + 2)
    return slot, end


def _bad_slot(r, slot, end):
    n = int(slot.max()) + 1  # every task has a slice
    slot[r.randrange(len(slot))] = r.choice([-1, n, n + 4, r.randrange(n)])
    return slot, end


def _swap_rows(r, slot, end):
    i, j = r.randrange(len(slot)), r.randrange(len(slot))
    slot[[i, j]], end[[i, j]] = slot[[j, i]], end[[j, i]]
    return slot, end


def _swap_slots(r, slot, end):
    i, j = r.randrange(len(slot)), r.randrange(len(slot))
    slot[[i, j]] = slot[[j, i]]
    return slot, end


def _drop_row(r, slot, end):
    i = r.randrange(len(slot))
    return np.delete(slot, i), np.delete(end, i)


def _duplicate_row(r, slot, end):
    i = r.randrange(len(slot))
    return np.insert(slot, i, slot[i]), np.insert(end, i, end[i])


def _uneven_columns(r, slot, end):
    # One column gains a row or loses its last; the other keeps its length.
    grow = r.random() < 0.5
    if r.random() < 0.5:
        return (np.append(slot, slot[-1]) if grow else slot[:-1]), end
    return slot, (np.append(end, end[-1] + 1) if grow else end[:-1])


MUTATIONS = {
    "shift_end": _shift_end,
    "shift_tail": _shift_tail,
    "change_end": _change_end,
    "bad_slot": _bad_slot,
    "swap_rows": _swap_rows,
    "swap_slots": _swap_slots,
    "drop_row": _drop_row,
    "duplicate_row": _duplicate_row,
    "uneven_columns": _uneven_columns,
}


def mutate(name: str, schedule: Schedule, r: random.Random) -> Schedule:
    """A new schedule of ``schedule``'s task set whose columns are mutated
    copies of its own."""
    slot, end = MUTATIONS[name](r, schedule.slot.copy(), schedule.end.copy())
    return Schedule(schedule.tasks, slot, end)


def outcome(schedule: Schedule) -> list:
    """What the metrics make of a schedule: ``["report", ...]`` with every
    field as plain ints, or ``["violation", message]``."""
    try:
        report = metrics_from_schedule(schedule)
    except InvariantViolation as exc:
        return ["violation", str(exc)]
    return [
        "report",
        [list(row) for row in report.per_task],
        report.total_waiting,
        [report.avg_waiting.numerator, report.avg_waiting.denominator],
        [report.avg_turnaround.numerator, report.avg_turnaround.denominator],
        report.total_context_switches,
        report.makespan,
    ]


def outcomes() -> dict[tuple[str, str], list[list]]:
    """Every outcome of the corpus, grouped by (schedule, mutation), each
    group in a fixed order."""
    r = random.Random(SEED)
    groups: dict[tuple[str, str], list[list]] = {}
    for _ in range(SETS):
        for kind, schedule in _schedules(_task_set(r), r).items():
            for name in MUTATIONS:
                for _ in range(MUTANTS_EACH):
                    groups.setdefault((kind, name), []).append(outcome(mutate(name, schedule, r)))
    return groups


def digest(group: list[list]) -> str:
    return hashlib.sha256(json.dumps(group).encode("utf-8")).hexdigest()


def entries() -> list[dict]:
    return [
        {
            "schedule": kind,
            "mutation": name,
            "outcomes": len(group),
            "violations": sum(item[0] == "violation" for item in group),
            "sha256": digest(group),
        }
        for (kind, name), group in outcomes().items()
    ]


def write_fixture() -> None:
    listed = entries()
    lines = ",\n".join(json.dumps(entry) for entry in listed)  # one pair a line
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    total = sum(entry["outcomes"] for entry in listed)
    print(f"{total} outcomes in {len(listed)} pairs written to {FIXTURE}")


if __name__ == "__main__":
    write_fixture()
