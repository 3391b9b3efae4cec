"""The vectorized dispatch and metrics against the per-slice reference loops
in ``reference.py``: equal slice for slice, record for record, report for
report, and the same message on every broken schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drain_bursts, task_sets
from ctqsched import (
    InvariantViolation,
    Schedule,
    TaskSet,
    metrics_from_schedule,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
)
from reference import (
    Slice,
    reference_ctq,
    reference_fcfs,
    reference_fixed_rr,
    reference_metrics,
    schedule_from_slices,
    slices,
)

# Short tasks ahead of or behind one long task, so the long one runs a tail
# of rounds alone once the others have finished.
lone_tails = st.tuples(
    st.lists(st.integers(1, 8), min_size=0, max_size=4),
    st.integers(50, 400),
    st.lists(st.integers(1, 8), min_size=0, max_size=4),
).map(lambda parts: TaskSet.from_bursts(parts[0] + [parts[1]] + parts[2]))

queues = st.one_of(task_sets(), lone_tails)


@settings(max_examples=300, deadline=None)
@given(
    tasks=queues,
    # Up to twice the largest burst, so shares larger than every burst occur.
    quantum=st.integers(1, 800),
)
def test_fixed_policies_equal_the_reference_loop(tasks, quantum):
    quantum = min(quantum, 2 * max(tasks.bursts()))
    for schedule, expected in (
        (simulate_fixed_rr(tasks, quantum), reference_fixed_rr(tasks, quantum)),
        (simulate_fcfs(tasks), reference_fcfs(tasks)),
    ):
        assert slices(schedule) == expected
        assert len(schedule) == len(expected)
        assert schedule.makespan == sum(tasks.bursts())


@settings(max_examples=150, deadline=None)
@given(
    tasks=st.one_of(task_sets(max_n=8, max_burst=80), lone_tails),
    first=st.one_of(st.none(), st.integers(1, 500)),
)
def test_ctq_trace_equals_the_reference_loop(tasks, first):
    assert_ctq_trace_equals_the_reference_loop(tasks, first)


@settings(max_examples=60, deadline=None)
@given(bursts=drain_bursts(max_n=48), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_ctq_trace_equals_the_reference_loop_at_the_drain_shape(bursts, first):
    """Several rounds, after each of which the carried pair split drops the
    pairs of the tasks that finished; the reference rescans from scratch."""
    assert_ctq_trace_equals_the_reference_loop(TaskSet.from_bursts(bursts), first)


def assert_ctq_trace_equals_the_reference_loop(tasks, first):
    trace = run_ctq(tasks, first)
    records, expected = reference_ctq(tasks, first)
    assert trace.rounds == records
    assert slices(trace.schedule) == expected
    assert trace.metrics == reference_metrics(expected, sum(tasks.bursts()), tasks)


@settings(max_examples=300, deadline=None)
@given(tasks=queues, quantum=st.integers(1, 500))
def test_metrics_equal_the_reference_report(tasks, quantum):
    for schedule in (simulate_fixed_rr(tasks, quantum), simulate_fcfs(tasks)):
        expected = reference_metrics(slices(schedule), schedule.makespan, tasks)
        assert metrics_from_schedule(schedule, tasks) == expected


def outcome(run):
    """A report, or the message of the InvariantViolation raised instead."""
    try:
        return run()
    except InvariantViolation as exc:
        return f"InvariantViolation: {exc}"


def broken(rows, mutation, i, j, delta):
    """``rows`` with one hand-made fault; ``i`` and ``j`` index them."""
    rows = list(rows)
    s = rows[i]
    if mutation == "unknown id":
        rows[i] = s._replace(task_id=99)
    elif mutation == "shift":
        rows[i] = s._replace(start=s.start + delta, end=s.end + delta)
    elif mutation == "stretch":
        rows[i] = s._replace(end=s.end + delta)
    elif mutation == "shrink" and s.end - s.start > 1:
        rows[i] = s._replace(end=s.end - 1)
    elif mutation == "empty":
        rows[i] = s._replace(end=s.start)
    elif mutation == "reverse":
        rows[i] = s._replace(end=s.start - delta)
    elif mutation == "drop":
        del rows[i]
    elif mutation == "duplicate":
        rows.insert(i, s)
    elif mutation == "swap ids":
        t = rows[j]
        rows[i] = s._replace(task_id=t.task_id)
        rows[j] = t._replace(task_id=s.task_id)
    elif mutation == "move":
        rows.insert(j, rows.pop(i))
    return rows


MUTATIONS = [
    "unknown id", "shift", "stretch", "shrink", "empty", "reverse", "drop", "duplicate",
    "swap ids", "move",
]


@settings(max_examples=400, deadline=None)
@given(
    tasks=task_sets(max_n=6, max_burst=30),
    quantum=st.integers(1, 12),
    faults=st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=3,
    ),
    makespan_delta=st.sampled_from([0, 0, 0, 1, -1]),
)
def test_broken_schedules_raise_the_reference_message(tasks, quantum, faults, makespan_delta):
    rows = list(slices(simulate_fixed_rr(tasks, quantum)))
    for mutation, i, j, delta in faults:
        if rows:
            rows = broken(rows, mutation, i % len(rows), j % len(rows), delta)
    good = schedule_from_slices(rows)
    makespan = good.makespan + makespan_delta
    schedule = Schedule(good.ids, good.slot, good.start, good.end, good.round, makespan)
    expected = outcome(lambda: reference_metrics(rows, makespan, tasks))
    assert outcome(lambda: metrics_from_schedule(schedule, tasks)) == expected


@pytest.mark.parametrize(
    "quads,makespan,bursts",
    [
        # An over-run comes before a later gap.
        ([(1, 0, 5, 1), (2, 6, 8, 1)], 8, [4, 2]),
        # A gap comes before a later over-run.
        ([(1, 0, 2, 1), (2, 3, 9, 1)], 9, [2, 1]),
        # An unknown id comes before a later over-run.
        ([(1, 0, 2, 1), (7, 2, 3, 1), (1, 3, 9, 2)], 9, [2]),
        # The second task's over-run comes first in slice order.
        ([(1, 0, 1, 1), (2, 1, 4, 1), (1, 4, 9, 2)], 9, [2, 2]),
        # Under-runs are reported in queue order, then the makespan.
        ([(2, 0, 1, 1), (1, 1, 2, 1)], 2, [3, 2]),
        ([(1, 0, 3, 1)], 4, [3]),
        ([], 0, [3]),
        # Totals, timeline and makespan all add up around a negative slice
        # and around an empty one; the length check catches both.
        ([(1, 0, 5, 1), (1, 5, 3, 2), (2, 3, 5, 1)], 5, [3, 2]),
        ([(1, 0, 3, 1), (2, 3, 3, 1), (2, 3, 5, 2)], 5, [3, 2]),
    ],
)
def test_hand_broken_schedules(quads, makespan, bursts):
    rows = [Slice(*q) for q in quads]
    good = schedule_from_slices(rows)
    schedule = Schedule(good.ids, good.slot, good.start, good.end, good.round, makespan)
    tasks = TaskSet.from_bursts(bursts)
    expected = outcome(lambda: reference_metrics(rows, makespan, tasks))
    assert expected.startswith("InvariantViolation")
    assert outcome(lambda: metrics_from_schedule(schedule, tasks)) == expected
