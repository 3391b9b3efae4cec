"""Closed-form waiting times against the slice-by-slice oracle."""

import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drain_bursts, task_sets
from ctqsched import (
    TaskSet,
    analytic,
    best_quantum,
    full_quanta,
    last_slice_start,
    metrics_from_schedule,
    simulate_fixed_rr,
    waiting_profile,
)
from ctqsched.analytic import _candidate_quanta, _lower_bounds, _split_pairs
from reference import pair_split_totals, reference_total_waiting, task_slices


class TestFullQuanta:
    @pytest.mark.parametrize(
        "burst,quantum,expected",
        [
            (24, 4, 5),   # exact multiple folds the last quantum into the final slice
            (3, 4, 0),    # shorter than one quantum
            (8, 4, 1),    # exact multiple
            (19, 2, 9),   # plain floor
            (1, 1, 0),
        ],
    )
    def test_values(self, burst, quantum, expected):
        assert full_quanta(burst, quantum) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            full_quanta(0, 4)
        with pytest.raises(ValueError):
            full_quanta(4, 0)


class TestLastSliceStart:
    def test_reference_queue(self):
        ts = TaskSet.from_bursts([24, 3, 3])
        assert last_slice_start(ts, 4, 1) == 26
        assert last_slice_start(ts, 4, 2) == 4
        assert last_slice_start(ts, 4, 3) == 7

    def test_single_task_starts_after_its_own_quanta(self):
        ts = TaskSet.from_bursts([11])
        for quantum in (1, 2, 3, 11, 20):
            assert last_slice_start(ts, quantum, 1) == full_quanta(11, quantum) * quantum

    def test_position_out_of_range(self):
        ts = TaskSet.from_bursts([5, 5])
        with pytest.raises(IndexError):
            last_slice_start(ts, 2, 0)
        with pytest.raises(IndexError):
            last_slice_start(ts, 2, 3)

    def test_rejects_non_positive_quantum(self):
        ts = TaskSet.from_bursts([5, 5])
        with pytest.raises(ValueError, match="quantum must be at least 1 tu, got 0"):
            last_slice_start(ts, 0, 1)
        # The position is checked first.
        with pytest.raises(IndexError):
            last_slice_start(ts, 0, 3)


class TestWaitingProfile:
    def test_reference_queue(self):
        profile = waiting_profile(TaskSet.from_bursts([24, 3, 3]), 4)
        assert [t.waiting for t in profile.per_task] == [6, 4, 7]
        assert profile.total_waiting == 17
        assert profile.avg_waiting == Fraction(17, 3)

    def test_unit_quantum_mixed_queue(self):
        profile = waiting_profile(TaskSet.from_bursts([20, 20, 5, 3, 1]), 1)
        assert profile.avg_waiting == Fraction(17)

    def test_two_long_two_short(self):
        # Frozen from the simulator: completions 43, 44, 14, 8 under quantum 2.
        tasks = TaskSet.from_bursts([19, 19, 4, 2])
        report = metrics_from_schedule(simulate_fixed_rr(tasks, 2), tasks)
        assert [m.completion for m in report.per_task] == [43, 44, 14, 8]
        profile = waiting_profile(tasks, 2)
        assert profile.total_waiting == report.total_waiting == 65
        assert profile.avg_waiting == Fraction(65, 4)

    def test_single_task(self):
        profile = waiting_profile(TaskSet.from_bursts([42]), 5)
        assert profile.per_task[0].waiting == 0
        assert profile.avg_waiting == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            waiting_profile(TaskSet((), ()), 3)

    def test_queue_order_changes_per_task_waits(self):
        # Same multiset of bursts, different order: totals differ, so nothing
        # beyond makespan/total burst is order-insensitive.
        front = waiting_profile(TaskSet.from_bursts([24, 3, 3]), 4)
        back = waiting_profile(TaskSet.from_bursts([3, 3, 24]), 4)
        assert front.total_waiting == 17
        assert back.total_waiting == 9

    def test_relabelling_ids_keeps_totals(self):
        base = TaskSet.from_bursts([24, 3, 3])
        relabelled = TaskSet([i + 10 for i in base.ids], base.bursts())
        assert (
            waiting_profile(relabelled, 4).total_waiting
            == waiting_profile(base, 4).total_waiting
        )


class TestBestQuantum:
    # Quanta the scan evaluates: both ends of every interval on which each
    # (burst - 1) // tq is constant. For 19, 19, 4, 2 that is 1..7, 9, 10, 18
    # and 19, the ends for 18 // tq (3 // tq and 1 // tq add none).
    CANDIDATES = {(19, 19, 4, 2): 11, (17, 17, 2): 10, (15, 15): 9, (7,): 6}

    @pytest.mark.parametrize(
        "bursts,expected",
        [
            ([19, 19, 4, 2], 2),
            ([17, 17, 2], 2),
            ([15, 15], 15),
            ([7], 7),  # every quantum ties at zero waiting; largest wins
        ],
    )
    def test_choices(self, bursts, expected):
        choice = best_quantum(TaskSet.from_bursts(bursts))
        assert choice.quantum == expected
        assert choice.candidates_evaluated == self.CANDIDATES[tuple(bursts)]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            best_quantum(TaskSet((), ()))

    def test_identical_bursts_pick_the_burst(self):
        # Brute force over the full candidate range via the simulator, then
        # check the scan agrees, for a spread of (n, burst) pairs.
        for n in range(1, 7):
            for burst in (1, 2, 7, 30):
                tasks = TaskSet.from_bursts([burst] * n)
                totals = {
                    tq: metrics_from_schedule(
                        simulate_fixed_rr(tasks, tq), tasks
                    ).total_waiting
                    for tq in range(1, burst + 1)
                }
                best_by_simulation = max(
                    (tq for tq in totals if totals[tq] == min(totals.values()))
                )
                assert best_by_simulation == burst
                assert best_quantum(tasks).quantum == burst


@settings(max_examples=150, deadline=None)
@given(tasks=task_sets(max_n=10, max_burst=60))
def test_closed_form_matches_simulation_for_every_quantum(tasks):
    """The analytic route and the dispatch loop must agree exactly."""
    for quantum in range(1, max(tasks.bursts()) + 1):
        schedule = simulate_fixed_rr(tasks, quantum)
        report = metrics_from_schedule(schedule, tasks)
        profile = waiting_profile(tasks, quantum)
        for task, metrics, row in zip(tasks, report.per_task, profile.per_task):
            slices = task_slices(schedule, task.id)
            assert row.waiting == metrics.waiting
            assert row.full_quanta == len(slices) - 1
            assert row.last_slice_start == slices[-1].start


@settings(max_examples=150, deadline=None)
@given(tasks=task_sets(max_n=8, max_burst=40))
def test_scan_equals_sequential_evaluation(tasks):
    """The vectorized candidate scan must match a plain per-quantum loop,
    including the largest-quantum tie-break."""
    largest = max(tasks.bursts())
    totals = [waiting_profile(tasks, tq).total_waiting for tq in range(1, largest + 1)]
    smallest = min(totals)
    expected = max(tq for tq, total in zip(range(1, largest + 1), totals) if total == smallest)

    choice = best_quantum(tasks)
    assert choice.quantum == expected
    assert choice.avg_waiting == Fraction(smallest, tasks.n)
    assert choice.candidates_evaluated <= largest
    assert 1 <= choice.quantum <= largest


def every_quantum(tasks):
    return np.arange(1, max(tasks.bursts()) + 1, dtype=np.int64)


# Chunk sizes that rarely divide the candidate count, down to one cell, where
# every chunk holds a single candidate.
chunk_cells = st.one_of(st.just(analytic._PAIR_CHUNK_CELLS), st.integers(1, 700))


def assert_pair_kernel_equals_the_oracle(tasks):
    """At every quantum in [1, largest burst] the lower bound L stays at or
    below the n x n cell kernel's total, and L plus the correction equals it."""
    quanta = every_quantum(tasks)
    expected = reference_total_waiting(tasks.bursts(), quanta)
    bounds = _lower_bounds(_split_pairs(tasks.bursts()), quanta)
    assert (bounds <= expected).all()
    totals = pair_split_totals(tasks.bursts(), quanta)
    assert totals.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=30, max_burst=300), cells=chunk_cells)
def test_pair_kernel_equals_the_oracle(tasks, cells):
    """Over every quantum in [1, largest burst], the split of the queue pairs
    into in-order and inverted ones gives exactly the totals of the n x n
    cell kernel, and L never passes them."""
    with patch.object(analytic, "_PAIR_CHUNK_CELLS", cells):
        assert_pair_kernel_equals_the_oracle(tasks)


@pytest.mark.parametrize(
    "bursts",
    [
        [1000],  # one task: no pairs, so every total is 0
        # 48 tasks take 341 candidates a chunk in the bound pass, and their
        # 530 inverted pairs 30 in the exact pass; neither divides the 950
        # quanta up to the largest burst.
        [(k * 389) % 1000 + 1 for k in range(48)],
        # 200 tasks have more inverted pairs than a chunk has cells: one
        # candidate a chunk in the exact pass.
        [(k * 7) % 23 + 1 for k in range(200)],
    ],
)
def test_pair_kernel_equals_the_oracle_explicit(bursts):
    assert_pair_kernel_equals_the_oracle(TaskSet.from_bursts(bursts))


def largest_minimizer(bursts, quanta):
    """The largest quantum of ``quanta`` with the smallest total of the n x n
    cell kernel, and that total."""
    totals = reference_total_waiting(bursts, quanta)
    best = totals.size - 1 - int(np.argmin(totals[::-1]))
    return int(quanta[best]), int(totals[best])


@settings(max_examples=60, deadline=None)
@given(bursts=drain_bursts())  # one CTQ round of the drain workload
def test_pruned_scan_at_the_drain_shape(bursts):
    """Over the candidate quanta, the scan picks the cell kernel's largest
    minimizer at its total, and evaluates every candidate exactly."""
    quanta = _candidate_quanta(np.asarray(bursts) - 1)
    quantum, total = largest_minimizer(bursts, quanta)
    choice = best_quantum(TaskSet.from_bursts(bursts))
    assert (choice.quantum, choice.avg_waiting) == (quantum, Fraction(total, len(bursts)))
    assert choice.candidates_evaluated == quanta.size
    exact = pair_split_totals(bursts, quanta)
    assert exact.tolist() == reference_total_waiting(bursts, quanta).tolist()


def scan_peak(tasks):
    """Bytes ``best_quantum(tasks)`` allocates at its peak."""
    best_quantum(tasks)  # a first call also imports what numpy loads lazily
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        best_quantum(tasks)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_scan_temporaries_stay_small():
    """A scan of 48 tasks with bursts up to 1000 (the shape of a CTQ round)
    peaks below 1 MiB of allocations: its temporaries are chunked."""
    rng = np.random.default_rng(48)
    bursts = np.exp(rng.uniform(0, np.log(1000), 48)).astype(np.int64).tolist()
    assert scan_peak(TaskSet.from_bursts(bursts)) < 1 << 20


def test_scan_of_300_tasks_stays_small():
    """300 tasks with bursts up to 1000 hold about 22,000 inverted pairs, a
    few arrays of them at a time, and peak below 1.5 MiB of allocations."""
    bursts = np.random.default_rng(300).integers(1, 1001, 300).tolist()
    assert scan_peak(TaskSet.from_bursts(bursts)) < 1.5 * (1 << 20)


def assert_candidates_keep_the_argmin(tasks):
    """The breakpoint candidates must pick what the n x n cell kernel picks
    when run over every quantum in [1, largest burst]."""
    quantum, total = largest_minimizer(tasks.bursts(), every_quantum(tasks))
    choice = best_quantum(tasks)
    assert choice.quantum == quantum
    assert choice.avg_waiting == Fraction(total, tasks.n)
    assert 1 <= choice.candidates_evaluated <= max(tasks.bursts())


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=12, max_burst=3000))
def test_candidates_keep_the_argmin(tasks):
    assert_candidates_keep_the_argmin(tasks)


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=30, max_burst=300), cells=chunk_cells)
def test_pruned_scan_in_any_chunk_size(tasks, cells):
    """With the bound pass and the exact passes cut into chunks of any size,
    the scan still picks the cell kernel's largest minimizer."""
    with patch.object(analytic, "_PAIR_CHUNK_CELLS", cells):
        assert_candidates_keep_the_argmin(tasks)


@pytest.mark.parametrize(
    "bursts",
    [
        [1],
        [1, 1, 1],
        [1, 2, 1],
        [1, 2999],
        [500] * 12,  # all equal: every quantum below the burst ties on full_quanta
        [7] * 5,
        [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],  # each divides the next
        [3000, 1500, 1000, 750, 600, 500, 300, 100, 30, 10, 3, 1],
        [36, 12, 6, 4, 3, 2, 1],
    ],
)
def test_candidates_keep_the_argmin_explicit(bursts):
    assert_candidates_keep_the_argmin(TaskSet.from_bursts(bursts))


@given(tasks=task_sets(max_n=8, max_burst=40), quantum=st.integers(1, 40))
def test_waits_are_non_negative(tasks, quantum):
    profile = waiting_profile(tasks, quantum)
    for row in profile.per_task:
        assert row.waiting >= 0
        assert row.last_slice_start >= row.full_quanta * quantum
