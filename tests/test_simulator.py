"""The round loop and its executors: fixed RR and FCFS."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import task_sets
from ctqsched import (
    TaskSet,
    full_quanta,
    metrics_from_schedule,
    simulate_fcfs,
    simulate_fixed_rr,
)
from ctqsched.simulate import run_rounds
from reference import Slice, slices, task_slices

MIXED_FIVE = TaskSet.from_bursts([20, 20, 5, 3, 1])


class TestFixedRR:
    def test_reference_timeline(self):
        schedule = simulate_fixed_rr(TaskSet.from_bursts([24, 3, 3]), 4)
        assert [s.start for s in slices(schedule)] == [0, 4, 7, 10, 14, 18, 22, 26]
        assert [s.task_id for s in slices(schedule)] == [1, 2, 3, 1, 1, 1, 1, 1]
        assert [s.round for s in slices(schedule)] == [1, 1, 1, 2, 3, 4, 5, 6]
        assert schedule.makespan == 30

    def test_unit_quantum_metrics(self):
        tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
        report = metrics_from_schedule(simulate_fixed_rr(tasks, 1), tasks)
        assert report.avg_waiting == Fraction(17)
        assert report.avg_turnaround == Fraction(134, 5)
        assert report.total_context_switches == 44

    def test_single_task_one_slice(self):
        schedule = simulate_fixed_rr(TaskSet.from_bursts([9]), 12)
        assert [(s.start, s.end, s.round) for s in slices(schedule)] == [(0, 9, 1)]

    def test_boundary_finish_stays_in_slice(self):
        # burst == quantum: one slice, no zero-length follow-up
        schedule = simulate_fixed_rr(TaskSet.from_bursts([4, 4]), 4)
        assert [(s.start, s.end) for s in slices(schedule)] == [(0, 4), (4, 8)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_fixed_rr(TaskSet.from_bursts([5]), 0)
        with pytest.raises(ValueError):
            simulate_fixed_rr(TaskSet((), ()), 3)


class TestFCFS:
    def test_cumulative_completions(self):
        tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
        report = metrics_from_schedule(simulate_fcfs(tasks), tasks)
        assert [m.completion for m in report.per_task] == [20, 40, 45, 48, 49]
        assert report.avg_waiting == Fraction(153, 5)

    def test_one_slice_per_task(self):
        schedule = simulate_fcfs(TaskSet.from_bursts([24, 3, 3]))
        assert [(s.task_id, s.end) for s in slices(schedule)] == [(1, 24), (2, 27), (3, 30)]
        assert all(s.round == 1 for s in slices(schedule))

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            simulate_fcfs(TaskSet((), ()))


def rounds_with_quanta(tasks, quanta):
    """Every round of the loop when round r gives each survivor quanta[r - 1]
    for that round only: its number, the survivors entering it, its slices."""
    entering = []

    def share_for_round(number, survivors):
        entering.append((number, survivors))
        return quanta[number - 1], 1

    rows = slices(run_rounds(tasks, share_for_round))
    return [
        (number, survivors, tuple(s for s in rows if s.round == number))
        for number, survivors in entering
    ]


class TestRunRounds:
    # The CTQ reference run's quanta; the clock enters round r where round
    # r - 1's last slice ends.
    def test_mid_run_round(self):
        rounds = rounds_with_quanta(MIXED_FIVE, [1, 2, 2, 15])
        number, survivors, slices = rounds[1]
        assert (number, survivors) == (2, ((1, 19), (2, 19), (3, 4), (4, 2)))
        assert rounds[0][2][-1].end == 5
        assert [(s.start, s.end) for s in slices] == [(5, 7), (7, 9), (9, 11), (11, 13)]
        assert rounds[2][1] == ((1, 17), (2, 17), (3, 2))
        assert slices[-1].end == 13

    def test_final_round_drains_everyone(self):
        rounds = rounds_with_quanta(MIXED_FIVE, [1, 2, 2, 15])
        number, survivors, slices = rounds[-1]
        assert (number, survivors) == (4, ((1, 15), (2, 15)))
        assert rounds[2][2][-1].end == 19
        assert [(s.start, s.end) for s in slices] == [(19, 34), (34, 49)]
        assert slices[-1].end == 49

    def test_single_survivor_with_big_quantum(self):
        rounds = rounds_with_quanta(TaskSet((3,), (7,)), [100])
        assert rounds == [(1, ((3, 7),), (Slice(3, 0, 7, 1),))]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rounds_with_quanta(TaskSet((), ()), [2])
        with pytest.raises(ValueError):
            rounds_with_quanta(TaskSet.from_bursts([5]), [0])


@settings(max_examples=300)
@given(
    tasks=task_sets(),
    quantum=st.integers(min_value=1, max_value=70),
    policy=st.sampled_from(["rr", "fcfs"]),
)
def test_schedule_invariants(tasks, quantum, policy):
    run, share = {
        "rr": (lambda: simulate_fixed_rr(tasks, quantum), lambda task: quantum),
        "fcfs": (lambda: simulate_fcfs(tasks), lambda task: task.burst),
    }[policy]
    schedule = run()

    rows = slices(schedule)
    assert rows[0].start == 0
    for prev, cur in zip(rows, rows[1:]):
        assert cur.start == prev.end
    assert schedule.makespan == sum(tasks.bursts())

    for task in tasks:
        own = task_slices(schedule, task.id)
        assert sum(s.length for s in own) == task.burst
        assert len(own) == full_quanta(task.burst, share(task)) + 1
        # Every survivor runs once per round, so the round number is also
        # the task's dispatch count.
        assert [s.round for s in own] == list(range(1, len(own) + 1))

    # Deterministic: rerunning yields the identical schedule.
    assert run() == schedule


@settings(max_examples=120, deadline=None)
@given(tasks=task_sets())
def test_quantum_at_largest_burst_degenerates_to_fcfs(tasks):
    assert slices(simulate_fixed_rr(tasks, max(tasks.bursts()))) == slices(simulate_fcfs(tasks))
