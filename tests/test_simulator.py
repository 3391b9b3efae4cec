"""The schedule builder and its executors: fixed RR and FCFS."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import task_sets
from ctqsched import (
    TaskSet,
    metrics_from_schedule,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
)
from ctqsched.simulate import run_rounds
from reference import Slice, reference_rounds, schedule_rounds, slices, task_slices

MIXED_FIVE = TaskSet.from_bursts([20, 20, 5, 3, 1])


def test_every_builder_returns_a_schedule_of_its_own_task_set():
    # Ids neither in numeric order nor numbered from 1: a row's slot is its
    # task's queue position, and the set it holds turns it back into the id.
    tasks = TaskSet((7, 3, 12), (5, 2, 4))
    rr, fcfs, ctq = run_rounds(tasks, [2]), simulate_fcfs(tasks), run_ctq(tasks).schedule
    assert rr.tasks is fcfs.tasks is ctq.tasks is tasks
    assert list(rr) == [
        (7, 0, 2, 1), (3, 2, 4, 1), (12, 4, 6, 1), (7, 6, 8, 2), (12, 8, 10, 2), (7, 10, 11, 3),
    ]
    assert list(fcfs) == [(7, 0, 5, 1), (3, 5, 7, 1), (12, 7, 11, 1)]
    assert [task_id for task_id, *_ in ctq][:3] == [7, 3, 12]
    for schedule in (rr, fcfs, ctq):
        assert [m.task_id for m in metrics_from_schedule(schedule).per_task] == [7, 3, 12]


class TestFixedRR:
    def test_reference_timeline(self):
        schedule = simulate_fixed_rr(TaskSet.from_bursts([24, 3, 3]), 4)
        assert [s.start for s in slices(schedule)] == [0, 4, 7, 10, 14, 18, 22, 26]
        assert [s.task_id for s in slices(schedule)] == [1, 2, 3, 1, 1, 1, 1, 1]
        assert [s.round for s in slices(schedule)] == [1, 1, 1, 2, 3, 4, 5, 6]
        assert schedule.makespan == 30

    def test_unit_quantum_metrics(self):
        tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
        report = metrics_from_schedule(simulate_fixed_rr(tasks, 1))
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
        # The quantum is checked before the total burst.
        with pytest.raises(ValueError, match="^quantum must be at least 1 tu, got 0$"):
            simulate_fixed_rr(TaskSet.from_bursts([5, 5 * 10**19]), 0)


class TestFCFS:
    def test_cumulative_completions(self):
        tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
        report = metrics_from_schedule(simulate_fcfs(tasks))
        assert [m.completion for m in report.per_task] == [20, 40, 45, 48, 49]
        assert report.avg_waiting == Fraction(153, 5)

    def test_one_slice_per_task(self):
        schedule = simulate_fcfs(TaskSet.from_bursts([24, 3, 3]))
        assert [(s.task_id, s.end) for s in slices(schedule)] == [(1, 24), (2, 27), (3, 30)]
        assert all(s.round == 1 for s in slices(schedule))


class TestRunRounds:
    # The CTQ reference run's quanta; the clock enters round r where round
    # r - 1's last slice ends.
    def test_mid_run_round(self):
        rounds = schedule_rounds(MIXED_FIVE, run_rounds(MIXED_FIVE, [1, 2, 2, 15]))
        number, survivors, completed, slices = rounds[1]
        assert (number, survivors, completed) == (2, ((1, 19), (2, 19), (3, 4), (4, 2)), (4,))
        assert rounds[0].slices[-1].end == 5
        assert [(s.start, s.end) for s in slices] == [(5, 7), (7, 9), (9, 11), (11, 13)]
        assert rounds[2].survivors == ((1, 17), (2, 17), (3, 2))
        assert slices[-1].end == 13

    def test_final_round_drains_everyone(self):
        rounds = schedule_rounds(MIXED_FIVE, run_rounds(MIXED_FIVE, [1, 2, 2, 15]))
        number, survivors, completed, slices = rounds[-1]
        assert (number, survivors, completed) == (4, ((1, 15), (2, 15)), (1, 2))
        assert rounds[2].slices[-1].end == 19
        assert [(s.start, s.end) for s in slices] == [(19, 34), (34, 49)]
        assert slices[-1].end == 49

    def test_single_survivor_with_big_quantum(self):
        tasks = TaskSet((3,), (7,))
        rounds = schedule_rounds(tasks, run_rounds(tasks, [100]))
        assert rounds == [(1, ((3, 7),), (3,), (Slice(3, 0, 7, 1),))]

    @pytest.mark.parametrize("bursts", [[256, 3, 255], [257, 3, 256]])
    def test_int64_columns_either_side_of_the_byte_key(self, bursts):
        # Up to 256 rounds the slices are sorted on a one-byte key, which
        # wraps 255 + 1 to 0; the rounds, read off the slots, count on.
        schedule = run_rounds(TaskSet.from_bursts(bursts), [1])
        assert [c.dtype for c in (schedule.slot, schedule.end, schedule.round)] == [np.int64] * 3
        assert schedule.round.max() == schedule.round[-1] == bursts[0]

    @pytest.mark.parametrize(
        "n,largest",
        # At most 100 rounds sort on the byte key; up to 5000 are timsorted.
        [(200, 100), (100, 5000)],
        ids=["byte-key", "timsort"],
    )
    def test_unit_quantum_peaks_at_most_36_bytes_a_slice(self, n, largest):
        # The temporaries live in few buffers, and the columns come out in
        # two of them: slot and end are distinct int64 arrays.
        tasks = TaskSet.from_bursts(np.random.default_rng(n).integers(1, largest + 1, n).tolist())
        run_rounds(tasks, [1])  # a first call also imports what numpy loads lazily
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            schedule = run_rounds(tasks, [1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 36 * len(schedule)
        assert schedule.slot.dtype == schedule.end.dtype == np.int64
        assert not np.shares_memory(schedule.slot, schedule.end)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="quantum must be at least 1 tu, got 0"):
            run_rounds(TaskSet.from_bursts([5]), [0])
        with pytest.raises(ValueError, match="quantum must be at least 1 tu, got -3"):
            run_rounds(MIXED_FIVE, [4, -3, 2])
        with pytest.raises(ValueError):
            run_rounds(MIXED_FIVE, [])

    def test_quanta_are_read_as_ints(self):
        assert run_rounds(MIXED_FIVE, [True, np.int64(2)]) == run_rounds(MIXED_FIVE, [1, 2])
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            run_rounds(MIXED_FIVE, [2, 2.0])


@settings(max_examples=300, deadline=None)
@given(
    tasks=task_sets(),
    quanta=st.lists(
        st.one_of(st.integers(1, 70), st.integers(2**63 - 2, 2**66)), min_size=1, max_size=8
    ),
)
# Heads whose offers pass every burst before the sequence ends, a last
# quantum held for three more rounds, one quantum, and quanta past 2**63 tu.
# The last of these has offers that add up past 2**63 even once each is
# clamped at the total burst, so the work offered is clamped too.
@example(tasks=MIXED_FIVE, quanta=[1, 2, 2, 15, 3, 9, 2**64])
@example(tasks=MIXED_FIVE, quanta=[20, 1, 1])
@example(tasks=TaskSet.from_bursts([6, 1, 3]), quanta=[1, 2])
@example(tasks=MIXED_FIVE, quanta=[3])
@example(tasks=MIXED_FIVE, quanta=[2**63])
@example(tasks=MIXED_FIVE, quanta=[1, 2**63 + 5, 4])
@example(tasks=TaskSet.from_bursts([2**62, 2**62 - 1]), quanta=[2**62, 2**63, 5])
# Round counts either side of 256, where the round order's sort key switches
# from one byte to int64: 256 rounds, 257 rounds, and 598 after a head quantum.
@example(tasks=TaskSet.from_bursts([256, 3, 255]), quanta=[1])
@example(tasks=TaskSet.from_bursts([257, 3, 256]), quanta=[1])
@example(tasks=TaskSet.from_bursts([600, 2]), quanta=[3, 1])
def test_run_rounds_equals_the_reference_round_loop(tasks, quanta):
    # The reference offers round r quanta[r - 1], and the last quantum after.
    rounds = reference_rounds(
        tasks, lambda number, survivors: quanta[min(number, len(quanta)) - 1]
    )
    assert slices(run_rounds(tasks, quanta)) == tuple(s for *_, own in rounds for s in own)


def dispatch_counts(schedule):
    """How many times each row's task has run, this row included, counted
    row by row over the slots."""
    seen = Counter()
    counts = []
    for k in schedule.slot.tolist():
        seen[k] += 1
        counts.append(seen[k])
    return counts


@settings(max_examples=200, deadline=None)
@given(
    tasks=task_sets(),
    quanta=st.lists(st.integers(1, 70), min_size=1, max_size=8),
    first=st.one_of(st.none(), st.integers(1, 70)),
)
# 256 rounds, the most the one-byte sort key holds, and 257.
@example(tasks=TaskSet.from_bursts([256, 3, 255]), quanta=[1], first=1)
@example(tasks=TaskSet.from_bursts([257, 3, 256]), quanta=[1], first=None)
def test_rounds_read_off_the_slots_count_dispatches(tasks, quanta, first):
    # Every survivor runs once per round, so a row's round is its task's
    # dispatch count, on every schedule the package builds.
    for schedule in (
        run_rounds(tasks, quanta),
        simulate_fixed_rr(tasks, quanta[0]),
        simulate_fcfs(tasks),
        run_ctq(tasks, first).schedule,
    ):
        assert schedule.round.dtype == np.int64
        assert schedule.round.tolist() == dispatch_counts(schedule)


@settings(max_examples=300)
@given(
    tasks=task_sets(),
    quantum=st.integers(min_value=1, max_value=70),
    policy=st.sampled_from(["rr", "fcfs"]),
)
def test_schedule_invariants(tasks, quantum, policy):
    run, share = {
        "rr": (lambda: simulate_fixed_rr(tasks, quantum), lambda burst: quantum),
        "fcfs": (lambda: simulate_fcfs(tasks), lambda burst: burst),
    }[policy]
    schedule = run()

    rows = slices(schedule)
    assert rows[0].start == 0
    for prev, cur in zip(rows, rows[1:]):
        assert cur.start == prev.end
    assert schedule.makespan == sum(tasks.bursts)

    for task_id, burst in zip(tasks.ids, tasks.bursts):
        own = task_slices(schedule, task_id)
        assert sum(s.length for s in own) == burst
        assert len(own) == (burst - 1) // share(burst) + 1
        # Every survivor runs once per round, so the round number is also
        # the task's dispatch count.
        assert [s.round for s in own] == list(range(1, len(own) + 1))

    # Deterministic: rerunning yields the identical schedule.
    assert run() == schedule


@settings(max_examples=120, deadline=None)
@given(tasks=task_sets())
def test_quantum_at_largest_burst_degenerates_to_fcfs(tasks):
    assert slices(simulate_fixed_rr(tasks, max(tasks.bursts))) == slices(simulate_fcfs(tasks))
