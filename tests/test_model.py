"""Tasks, schedules, and metric extraction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import task_sets
from ctqsched import (
    InvariantViolation,
    Schedule,
    Task,
    TaskSet,
    format_fraction,
    metrics_from_schedule,
    simulate_fixed_rr,
)
from reference import Slice, schedule_from_slices, slices


def gantt(tasks, *quads) -> Schedule:
    return schedule_from_slices((Slice(*q) for q in quads), tasks)


LONG_THEN_TWO_SHORT = TaskSet.from_bursts([24, 3, 3])
MIXED_FIVE = TaskSet.from_bursts([20, 20, 5, 3, 1])

# Fixed RR, quantum 4, on bursts 24/3/3.
RR4_GANTT = gantt(
    LONG_THEN_TWO_SHORT,
    (1, 0, 4, 1), (2, 4, 7, 1), (3, 7, 10, 1),
    (1, 10, 14, 2), (1, 14, 18, 3), (1, 18, 22, 4), (1, 22, 26, 5), (1, 26, 30, 6),
)

# Per-round quanta 1, 2, 2, 15 on bursts 20/20/5/3/1.
CTQ_GANTT = gantt(
    MIXED_FIVE,
    (1, 0, 1, 1), (2, 1, 2, 1), (3, 2, 3, 1), (4, 3, 4, 1), (5, 4, 5, 1),
    (1, 5, 7, 2), (2, 7, 9, 2), (3, 9, 11, 2), (4, 11, 13, 2),
    (1, 13, 15, 3), (2, 15, 17, 3), (3, 17, 19, 3),
    (1, 19, 34, 4), (2, 34, 49, 4),
)


class TestTaskValidation:
    """A ``Task`` row checks nothing; its task set checks every row."""

    def test_zero_burst_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            TaskSet((1,), (0,))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="id"):
            TaskSet((-1,), (5,))


class TestTaskSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskSet((1, 1), (3, 4))

    @pytest.mark.parametrize(
        "ids,bursts,message",
        [
            ((1, 1, 2), (3, 4, 0), "task 2: burst must be at least 1 tu, got 0"),
            ((-1,), (0,), "task id must be non-negative, got -1"),
            ((4, -1), (0, 5), "task 4: burst must be at least 1 tu, got 0"),
            ((3, 1, 1, 3), (1, 1, 1, 1), "duplicate task id 1"),
            ((), (), "a task set needs at least one task"),
            ((1, 2), (5,), "task set columns differ in length: 2 ids, 1 bursts"),
            ((0,), (0,), "task 0: burst must be at least 1 tu, got 0"),
            ((0, 0), (3, 2), "duplicate task id 0"),
        ],
        ids=["burst-before-duplicate", "id-before-burst", "row-order", "first-duplicate",
             "empty", "unequal-columns", "zero-id-burst", "zero-id-duplicate"],
    )
    def test_first_fault_is_reported(self, ids, bursts, message):
        # Unequal columns and an empty set come first, then each row in queue
        # order (id before burst), then the first repeated id.
        with pytest.raises(ValueError) as info:
            TaskSet(ids, bursts)
        assert str(info.value) == message

    def test_id_zero_is_accepted(self):
        # Ids are non-negative, so 0 is the smallest valid one.
        ts = TaskSet((0, 1), (3, 2))
        assert (ts.ids, ts.bursts()) == ((0, 1), (3, 2))

    def test_rows_are_named_tuples_over_the_columns(self):
        ts = TaskSet((7, 3), (2, 9))
        assert list(ts) == [Task(7, 2), Task(id=3, burst=9)] == [(7, 2), (3, 9)]
        assert (ts.ids, ts.bursts(), len(ts)) == ((7, 3), (2, 9), 2)
        assert ts == TaskSet([7, 3], iter([2, 9])) != TaskSet((3, 7), (9, 2))

    def test_numpy_integers_become_ints(self):
        ts = TaskSet(np.array([7, 3]), np.array([2, 9], dtype=np.int32))
        assert [type(v) for v in ts.ids + ts.bursts()] == [int] * 4
        assert ts == TaskSet((7, 3), (2, 9))

    def test_int64_bursts_past_the_bound_fail_the_total_burst_check(self):
        # As int64 the two bursts sum to a negative total; as ints they are
        # refused before any column is built.
        tasks = TaskSet.from_bursts(np.array([2**62, 2**62]))
        with pytest.raises(ValueError) as info:
            simulate_fixed_rr(tasks, 1)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "total burst 9223372036854775808 tu is too large: schedules hold times below 2**63 tu"
        )

    @pytest.mark.parametrize(
        "ids,bursts",
        [(None, (2.5, 3)), ((1, 2), (np.float64(2), 3)), ((1.0,), (3,)), (("1",), (3,))],
        ids=["float-burst", "numpy-float-burst", "float-id", "str-id"],
    )
    def test_non_integers_are_refused(self, ids, bursts):
        with pytest.raises(TypeError):
            TaskSet.from_bursts(bursts) if ids is None else TaskSet(ids, bursts)

    def test_from_bursts_preserves_queue_order(self):
        ts = TaskSet.from_bursts([24, 3, 3])
        assert [t.id for t in ts] == [1, 2, 3]
        assert ts.bursts() == (24, 3, 3)
        assert ts.n == 3
        assert sum(ts.bursts()) == 30


def edited(schedule, change):
    """A copy of ``schedule`` with one field changed; an ``"id"`` change
    gives it a task set with another id in queue slot 1."""
    tasks = schedule.tasks
    slot, end = schedule.slot.copy(), schedule.end.copy()
    if change == "id":
        ids = list(tasks.ids)
        ids[1] = 99
        tasks = TaskSet(ids, tasks.bursts())
    elif change == "slot":
        slot[1] = slot[0]
    elif change == "end":
        end[1] += 1
    return Schedule(tasks, slot, end)


class TestSchedule:
    def test_rows_iterate_as_plain_tuples(self):
        schedule = simulate_fixed_rr(LONG_THEN_TWO_SHORT, 4)
        assert len(schedule) == 8
        assert list(schedule)[:4] == [(1, 0, 4, 1), (2, 4, 7, 1), (3, 7, 10, 1), (1, 10, 14, 2)]
        assert all(type(row) is tuple for row in schedule)
        assert schedule == RR4_GANTT

    def test_rerun_compares_equal(self):
        assert simulate_fixed_rr(MIXED_FIVE, 2) == simulate_fixed_rr(MIXED_FIVE, 2)
        assert edited(CTQ_GANTT, None) == CTQ_GANTT

    @pytest.mark.parametrize("change", ["id", "slot", "end"])
    def test_one_changed_field_compares_unequal(self, change):
        schedule = simulate_fixed_rr(MIXED_FIVE, 2)
        assert edited(schedule, change) != schedule
        assert schedule != edited(schedule, change)

    def test_a_non_schedule_compares_unequal(self):
        assert RR4_GANTT.__eq__(object()) is NotImplemented
        assert (RR4_GANTT == "x") is False
        assert RR4_GANTT != "x"

    def test_start_and_makespan_follow_from_end(self):
        assert Schedule.__slots__ == ("tasks", "slot", "end")
        assert RR4_GANTT.start.tolist() == [0, 4, 7, 10, 14, 18, 22, 26]
        assert (RR4_GANTT.start.dtype, RR4_GANTT.makespan) == (np.int64, 30)
        # A round begins at row 0 and wherever the slot does not rise.
        assert RR4_GANTT.round.tolist() == [1, 1, 1, 2, 3, 4, 5, 6]
        assert CTQ_GANTT.round.tolist() == [1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4]
        with pytest.raises(AttributeError):
            RR4_GANTT.round = RR4_GANTT.round
        # With no rows there is no start or round and the makespan is 0; the
        # metrics still report the task that never ran.
        empty = np.array([], dtype=np.int64)
        schedule = Schedule(TaskSet.from_bursts([3]), empty, empty)
        assert (schedule.start.size, schedule.round.size, schedule.makespan) == (0, 0, 0)
        assert schedule.round.dtype == np.int64
        assert repr(schedule) == "Schedule(0 slices, makespan=0)"
        with pytest.raises(InvariantViolation) as info:
            metrics_from_schedule(schedule)
        assert str(info.value) == "task 1 executes 0 tu, burst is 3"


class TestMetricsFromSchedule:
    def test_quantum_expiry_then_other_task_is_one_switch(self):
        # Only the long task's first slice ends unfinished with someone else
        # next; its later back-to-back slices cost nothing.
        report = metrics_from_schedule(RR4_GANTT)
        assert [m.context_switches for m in report.per_task] == [1, 0, 0]
        assert [m.waiting for m in report.per_task] == [6, 4, 7]
        assert [m.completion for m in report.per_task] == [30, 7, 10]
        assert report.total_waiting == 17
        assert report.makespan == 30

    def test_per_round_quanta_reference_counts(self):
        report = metrics_from_schedule(CTQ_GANTT)
        assert [m.context_switches for m in report.per_task] == [3, 3, 2, 1, 0]
        assert report.total_context_switches == 9
        assert report.avg_waiting == Fraction(71, 5)
        assert report.avg_turnaround == Fraction(24)

    def test_single_task_never_waits(self):
        report = metrics_from_schedule(gantt(TaskSet.from_bursts([9]), (1, 0, 9, 1)))
        assert report.per_task[0].waiting == 0
        assert report.per_task[0].context_switches == 0
        assert report.avg_waiting == 0

    def test_unit_quantum_round_robin_counts(self):
        report = metrics_from_schedule(simulate_fixed_rr(MIXED_FIVE, 1))
        assert report.avg_waiting == Fraction(17)
        assert report.avg_turnaround == Fraction(134, 5)
        assert report.total_context_switches == 44

    def test_turnaround_equals_completion(self):
        report = metrics_from_schedule(RR4_GANTT)
        for m in report.per_task:
            assert m.turnaround == m.completion


class TestScheduleMismatch:
    @pytest.mark.parametrize("slot", [[0, 5], [0, -1], [0, 2]])
    def test_slot_out_of_range(self, slot):
        # -1 would wrap onto task 2 and match its total; 5 is past the queue,
        # and 2, the queue's length, is its first slot past the end.
        bad = Schedule(
            TaskSet.from_bursts([2, 3]),
            slot=np.array(slot, dtype=np.int64),
            end=np.array([2, 5], dtype=np.int64),
        )
        with pytest.raises(InvariantViolation) as info:
            metrics_from_schedule(bad)
        assert str(info.value) == f"slice 1 has slot {slot[1]}, outside 0..1"

    @pytest.mark.parametrize(
        "slot,lengths",
        [([0, 1, 1], "slot 3, end 2"), ([0], "slot 1, end 2")],
        ids=["slot-too-many", "slot-too-few"],
    )
    def test_columns_of_different_lengths(self, slot, lengths):
        bad = Schedule(
            TaskSet.from_bursts([2, 3]),
            slot=np.array(slot, dtype=np.int64),
            end=np.array([2, 5], dtype=np.int64),
        )
        with pytest.raises(InvariantViolation) as info:
            metrics_from_schedule(bad)
        assert str(info.value) == f"schedule columns differ in length: {lengths}"

    def test_underrun_burst(self):
        bad = gantt(TaskSet.from_bursts([4, 3]), (1, 0, 3, 1), (2, 3, 6, 1))
        with pytest.raises(InvariantViolation, match="executes"):
            metrics_from_schedule(bad)

    def test_overrun_burst(self):
        bad = gantt(TaskSet.from_bursts([4, 3]), (1, 0, 5, 1), (2, 5, 8, 1))
        with pytest.raises(InvariantViolation, match="executes"):
            metrics_from_schedule(bad)

    def test_a_total_burst_past_int64_is_refused_first(self):
        # The second task's end cannot pass 2**63 - 1, so it runs 1 tu short
        # and the columns show an under-run too. The total burst is checked
        # first, as a plain ValueError: an InvariantViolation is one as well.
        bad = Schedule(
            TaskSet.from_bursts([2**62, 2**62]),
            slot=np.array([0, 1], dtype=np.int64),
            end=np.array([2**62, 2**63 - 1], dtype=np.int64),
        )
        with pytest.raises(ValueError) as info:
            metrics_from_schedule(bad)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "total burst 9223372036854775808 tu is too large: schedules hold times below 2**63 tu"
        )

    @pytest.mark.parametrize(
        "slot,end",
        [
            ([0, 0, 0], [2**63 - 1, -2, 1]),
            ([0, 1, 0, 1, 0, 1], [2**63 - 1, -2, 2**63 - 3, -4, -1, 2]),
        ],
        ids=["one-task", "two-tasks"],
    )
    def test_ends_that_wrap_around(self, slot, end):
        # Each end less the previous one wraps to 2**63 - 1, 2**63 - 1 and 3,
        # all positive, and each task's three lengths sum to 2**64 + 1, which
        # wraps to its 1 tu burst. Only the falling ends show the fault.
        bad = Schedule(
            TaskSet.from_bursts([1] * (max(slot) + 1)),
            slot=np.array(slot, dtype=np.int64),
            end=np.array(end, dtype=np.int64),
        )
        with pytest.raises(InvariantViolation) as info:
            metrics_from_schedule(bad)
        assert str(info.value) == f"task 1 executes {2**63 - 1} tu, burst is 1"


@given(tasks=task_sets(), quantum=st.integers(min_value=1, max_value=70))
def test_metrics_invariants_on_simulated_schedules(tasks, quantum):
    schedule = simulate_fixed_rr(tasks, quantum)
    report = metrics_from_schedule(schedule)

    assert report.makespan == sum(tasks.bursts())
    assert report.total_waiting == sum(m.completion for m in report.per_task) - sum(tasks.bursts())
    assert report.total_context_switches <= len(schedule) - 1

    # Waiting equals the time other tasks occupy the CPU before completion.
    for task, m in zip(tasks, report.per_task):
        others = sum(
            s.length
            for s in slices(schedule)
            if s.end <= m.completion and s.task_id != task.id
        )
        assert m.waiting == others == m.completion - task.burst

    # Pure function: same inputs, same report.
    assert metrics_from_schedule(schedule) == report


class TestFormatFraction:
    @pytest.mark.parametrize(
        "value,rendered",
        [
            (Fraction(134, 5), "26.8"),
            (Fraction(71, 5), "14.2"),
            (Fraction(65, 4), "16.25"),
            (Fraction(1, 8), "0.125"),
            (Fraction(17), "17"),
            (17, "17"),
            (Fraction(-7, 2), "-3.5"),
            (Fraction(17, 3), "17/3"),
            (Fraction(0), "0"),
        ],
    )
    def test_rendering(self, value, rendered):
        assert format_fraction(value) == rendered

    @given(
        st.integers(-(2**80), 2**80),
        st.integers(0, 70),
        st.integers(0, 30),
        st.sampled_from([1, 1, 3, 7, 49, 2**61 - 1]) | st.integers(1, 10**6),
        st.booleans(),
    )
    def test_rendering_round_trips(self, numerator, a, b, other, as_int):
        value = numerator if as_int else Fraction(numerator, 2**a * 5**b * other)
        rendered = format_fraction(value)
        assert Fraction(rendered) == value
        # The reduced denominator, split into 2^twos * 5^fives * rest.
        rest, twos, fives = Fraction(value).denominator, 0, 0
        while rest % 2 == 0:
            rest, twos = rest // 2, twos + 1
        while rest % 5 == 0:
            rest, fives = rest // 5, fives + 1
        assert ("/" in rendered) == (rest != 1)
        if rest == 1:
            decimals = rendered.partition(".")[2]
            assert len(decimals) == max(twos, fives)
