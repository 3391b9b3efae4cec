"""Closed-form waiting times against the slice-by-slice oracle."""

import os
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import isqrt
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drain_bursts, task_sets
from ctqsched import (
    TaskSet,
    analytic,
    best_quantum,
    compare_workload,
    metrics_from_schedule,
    run_ctq,
    simulate_fixed_rr,
    waiting_profile,
)
from ctqsched.analytic import _candidate_quanta, _lower_bounds, _PairSplit, _split_pairs
from ctqsched.simulate import run_rounds
from reference import (
    pair_split_totals,
    reference_sequence_waits,
    reference_total_waiting,
    task_slices,
)


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
        (row,) = waiting_profile(TaskSet.from_bursts([burst]), quantum).per_task
        assert row.full_quanta == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            waiting_profile(TaskSet.from_bursts([4]), 0)

    def test_the_quantum_is_read_as_an_int(self):
        tasks = TaskSet.from_bursts([5, 3])
        profile = waiting_profile(tasks, np.int64(2))
        assert profile == waiting_profile(tasks, 2)
        assert {type(value) for row in profile.per_task for value in row} == {int}
        assert waiting_profile(tasks, True) == waiting_profile(tasks, 1)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            waiting_profile(tasks, 2.0)


class TestLastSliceStart:
    def test_reference_queue(self):
        rows = waiting_profile(TaskSet.from_bursts([24, 3, 3]), 4).per_task
        assert [row.last_slice_start for row in rows] == [26, 4, 7]

    def test_single_task_starts_after_its_own_quanta(self):
        ts = TaskSet.from_bursts([11])
        for quantum in (1, 2, 3, 11, 20):
            (row,) = waiting_profile(ts, quantum).per_task
            assert row.last_slice_start == row.full_quanta * quantum

    def test_rejects_non_positive_quantum(self):
        ts = TaskSet.from_bursts([5, 5])
        with pytest.raises(ValueError, match="quantum must be at least 1 tu, got 0"):
            waiting_profile(ts, 0)


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
        report = metrics_from_schedule(simulate_fixed_rr(tasks, 2))
        assert [m.completion for m in report.per_task] == [43, 44, 14, 8]
        profile = waiting_profile(tasks, 2)
        assert profile.total_waiting == report.total_waiting == 65
        assert profile.avg_waiting == Fraction(65, 4)

    def test_single_task(self):
        profile = waiting_profile(TaskSet.from_bursts([42]), 5)
        assert profile.per_task[0].waiting == 0
        assert profile.avg_waiting == 0

    def test_queue_order_changes_per_task_waits(self):
        # Same multiset of bursts, different order: totals differ, so nothing
        # beyond makespan/total burst is order-insensitive.
        front = waiting_profile(TaskSet.from_bursts([24, 3, 3]), 4)
        back = waiting_profile(TaskSet.from_bursts([3, 3, 24]), 4)
        assert front.total_waiting == 17
        assert back.total_waiting == 9

    def test_relabelling_ids_keeps_totals(self):
        base = TaskSet.from_bursts([24, 3, 3])
        relabelled = TaskSet([i + 10 for i in base.ids], base.bursts)
        assert (
            waiting_profile(relabelled, 4).total_waiting
            == waiting_profile(base, 4).total_waiting
        )


class TestBestQuantum:
    # Quanta the scan evaluates: the left end of every interval on which each
    # (burst - 1) // tq is constant. For 19, 19, 4, 2 that is 1..5, 7, 10 and
    # 19, the left ends for 18 // tq (3 // tq and 1 // tq add none).
    CANDIDATES = {(19, 19, 4, 2): 8, (17, 17, 2): 8, (15, 15): 7, (7,): 5}

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

    def test_scan_of_4096_tasks_is_accepted(self):
        # n * n is exactly the scan's cell limit, which the bound admits.
        choice = best_quantum(TaskSet.from_bursts([5] * 4096))
        assert (choice.quantum, choice.candidates_evaluated) == (5, 4)

    @pytest.mark.parametrize(
        "n,burst",
        [(4096, 2**39), (3000, 2**40)],
        ids=["exactly-2-to-the-63", "refused-by-n-squared"],
    )
    def test_scan_past_exact_int64_totals_is_refused(self, n, burst):
        # 4096 * 4096 * 2**39 is exactly 2**63. 3000 bursts of 2**40 give
        # about 2.1e6 candidate quanta, inside the candidate limit, and the
        # burst alone is far below 2**63: only the n * n factor refuses them.
        with pytest.raises(ValueError) as info:
            best_quantum(TaskSet.from_bursts([burst] * n))
        assert str(info.value) == (
            f"cannot scan {n} tasks with a largest burst of {burst} tu: "
            "n * n * largest burst must stay below 2**63"
        )

    def test_identical_bursts_pick_the_burst(self):
        # Brute force over the full candidate range via the simulator, then
        # check the scan agrees, for a spread of (n, burst) pairs.
        for n in range(1, 7):
            for burst in (1, 2, 7, 30):
                tasks = TaskSet.from_bursts([burst] * n)
                totals = {
                    tq: metrics_from_schedule(simulate_fixed_rr(tasks, tq)).total_waiting
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
    for quantum in range(1, max(tasks.bursts) + 1):
        schedule = simulate_fixed_rr(tasks, quantum)
        report = metrics_from_schedule(schedule)
        profile = waiting_profile(tasks, quantum)
        for task_id, metrics, row in zip(tasks.ids, report.per_task, profile.per_task):
            slices = task_slices(schedule, task_id)
            assert row.waiting == metrics.waiting
            assert row.full_quanta == len(slices) - 1
            assert row.last_slice_start == slices[-1].start


# The waiting rule for any quantum sequence (``reference_sequence_waits``)
# against dispatch, the closed form at one quantum, CTQ and the comparison.
# Quanta up to 400 include some past the total burst of up to 320 tu.
@settings(max_examples=200, deadline=None)
@given(
    tasks=task_sets(max_n=8, max_burst=40),
    quanta=st.lists(st.one_of(st.integers(1, 12), st.integers(1, 400)), min_size=1, max_size=6),
)
def test_sequence_rule_matches_dispatch(tasks, quanta):
    report = metrics_from_schedule(run_rounds(tasks, quanta))
    waits = reference_sequence_waits(tasks.bursts, quanta)
    assert waits == [metrics.waiting for metrics in report.per_task]


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(), quantum=st.integers(1, 70))
def test_sequence_rule_at_one_quantum_is_the_profile(tasks, quantum):
    profile = waiting_profile(tasks, quantum)
    waits = reference_sequence_waits(tasks.bursts, [quantum])
    assert waits == [row.waiting for row in profile.per_task]


@settings(max_examples=100, deadline=None)
@given(bursts=drain_bursts(max_n=24), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_ctq_total_is_the_sequence_rule(bursts, first):
    trace = run_ctq(TaskSet.from_bursts(bursts), first)
    assert trace.metrics.total_waiting == sum(
        reference_sequence_waits(bursts, trace.quantum_sequence)
    )


@settings(max_examples=100, deadline=None)
@given(tasks=task_sets())
def test_compare_arms_wait_by_the_sequence_rule(tasks):
    bursts = tasks.bursts

    def avg_wait(quanta):
        return Fraction(sum(reference_sequence_waits(bursts, quanta)), tasks.n)

    rr, ctq, fcfs = compare_workload(tasks)
    assert rr.avg_wt == avg_wait([int(rr.tq_policy)])
    assert ctq.avg_wt == avg_wait(ctq.tq_sequence)
    assert fcfs.avg_wt == avg_wait([max(bursts)])


@settings(max_examples=150, deadline=None)
@given(tasks=task_sets(max_n=8, max_burst=40))
def test_scan_equals_sequential_evaluation(tasks):
    """The vectorized candidate scan must match a plain per-quantum loop,
    including the largest-quantum tie-break."""
    largest = max(tasks.bursts)
    totals = [waiting_profile(tasks, tq).total_waiting for tq in range(1, largest + 1)]
    smallest = min(totals)
    expected = max(tq for tq, total in zip(range(1, largest + 1), totals) if total == smallest)

    choice = best_quantum(tasks)
    assert choice.quantum == expected
    assert choice.avg_waiting == Fraction(smallest, tasks.n)
    assert choice.candidates_evaluated <= largest
    assert 1 <= choice.quantum <= largest


def every_quantum(tasks):
    return np.arange(1, max(tasks.bursts) + 1, dtype=np.int64)


# Chunk sizes that rarely divide the candidate count, down to one cell, where
# every chunk holds a single candidate.
chunk_cells = st.one_of(st.just(analytic._PAIR_CHUNK_CELLS), st.integers(1, 700))


def assert_pair_kernel_equals_the_oracle(tasks):
    """At every quantum in [1, largest burst] the lower bound L stays at or
    below the n x n cell kernel's total, and L plus the correction equals it."""
    quanta = every_quantum(tasks)
    expected = reference_total_waiting(tasks.bursts, quanta)
    bounds = _lower_bounds(_split_pairs(tasks.bursts), quanta)
    assert (bounds <= expected).all()
    totals = pair_split_totals(tasks.bursts, quanta)
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
    quanta = _candidate_quanta(_split_pairs(tuple(bursts)))
    quantum, total = largest_minimizer(bursts, quanta)
    choice = best_quantum(TaskSet.from_bursts(bursts))
    assert (choice.quantum, choice.avg_waiting) == (quantum, Fraction(total, len(bursts)))
    assert choice.candidates_evaluated == quanta.size
    exact = pair_split_totals(bursts, quanta)
    assert exact.tolist() == reference_total_waiting(bursts, quanta).tolist()


def exact_passes(corrections):
    """The calls of a wrapped ``_corrections`` that ran the scan's exact pass:
    those over more quanta than the guess alone."""
    return sum(call.args[1].size > 1 for call in corrections.call_args_list)


@pytest.mark.parametrize(
    "bursts,survivors",
    [
        ([24, 3, 3], 1),  # only the guess: its T is the answer, no exact pass
        # Quanta 1 and 2 tie on L and on T. The guess is 2, and 1, whose L is
        # the guess's T, can only tie with it and is pruned.
        ([19, 19, 4, 2], 1),
        ([7], 1),  # no pairs: every candidate ties at 0; only the largest is kept
        # The guess, 5, loses to quantum 1. Its T counts the pair 21, 19,
        # whose (b_i - 1) % tq + g is exactly tq; without it 1 is pruned.
        ([21, 19, 5], 3),
        # The guess, 10, has L 47 and T 48. Quantum 19 has L and T 48: it is
        # larger, so it is kept, and wins the tie.
        ([19, 10, 8], 2),
    ],
)
def test_both_scan_exits(bursts, survivors):
    """The scan returns the cell kernel's largest minimizer and total both
    when the guess alone survives the prune and when others do; only the
    second runs the exact pass over the survivors. A candidate survives when
    its L is below the guess's T, or equal to it at or above the guess."""
    pairs = _split_pairs(tuple(bursts))
    quanta = _candidate_quanta(pairs)
    bounds = _lower_bounds(pairs, quanta)
    guess = bounds.size - 1 - int(np.argmin(bounds[::-1]))
    ceiling = int(pair_split_totals(bursts, quanta)[guess])
    assert int((bounds < ceiling).sum() + (bounds[guess:] == ceiling).sum()) == survivors
    with patch.object(analytic, "_corrections", wraps=analytic._corrections) as corrections:
        quantum, total, count = analytic._scan(pairs)
    assert exact_passes(corrections) == (survivors > 1)
    assert (quantum, total, count) == (*largest_minimizer(bursts, quanta), quanta.size)
    assert (quantum, total) == largest_minimizer(bursts, every_quantum(TaskSet.from_bursts(bursts)))


def python_lower_bounds(pairs, quanta):
    """L at each quantum of ``quanta`` in Python ints, from the split's columns:
    a . w + tq * #{inverted, g >= tq} + sum{g : inverted, g < tq}, with w
    n - 1, ..., 0 by position in the order of top."""
    rows = list(zip(pairs.top.tolist(), range(pairs.top.size - 1, -1, -1)))
    gaps = pairs.gap.tolist()
    return [
        sum((top + 1 + top // tq * tq) * w for top, w in rows)
        + sum(tq if g >= tq else g for g in gaps)
        for tq in quanta
    ]


def quanta_near_the_root(m):
    """m // v and m // v + 1 for v around isqrt(m), where the candidates are
    densest, and for the smallest v, where the quotients are largest."""
    root = isqrt(m)
    vs = [*range(1, 6), *range(root - 5, root + 6)]
    return np.array(sorted({m // v + k for v in vs for k in (0, 1)}), dtype=np.int64)


def test_lower_bounds_are_exact_at_the_candidate_limit():
    """nq comes from a float64 quotient. Beside a few small tasks, a burst
    with b - 1 as large as the candidate limit admits gives the same L as
    Python ints where the quotients are largest and densest. The largest
    burst adds its nq to L only through a later equal burst (its w), so it
    comes twice; one distinct burst brings its candidates once."""
    small = [5, 17, 3]
    spare = analytic._CANDIDATE_LIMIT - 1 - sum(isqrt(b - 1) for b in small)
    root = spare // 2  # a burst with isqrt(m) = root brings 2 * root + 1 candidates
    m = (root + 1) ** 2 - 1  # the largest m with that isqrt
    assert 4.39e12 < m < 2**42
    pairs = _split_pairs((m + 1, *small, m + 1))
    assert pairs.top.size - 1 - np.flatnonzero(pairs.top == m)[0] == 1  # the first m's w
    assert _candidate_quanta(pairs).size <= analytic._CANDIDATE_LIMIT
    with pytest.raises(ValueError, match="candidate quanta"):
        _split_pairs((m + 2, *small))  # b - 1 = (root + 1) ** 2
    quanta = quanta_near_the_root(m)
    assert _lower_bounds(pairs, quanta).tolist() == python_lower_bounds(pairs, quanta)


# s = isqrt(b - 1) = 2**21 - 1 gives s + 1 + s = 2**22 - 1 candidates, the
# most one burst can bring; a burst of 2 adds isqrt(1) = 1, up to 2**22 exactly.
AT_THE_CANDIDATE_LIMIT = 2**42


def test_a_burst_at_the_candidate_limit_is_split():
    m = AT_THE_CANDIDATE_LIMIT - 1
    assert 2 * isqrt(m) + 1 + isqrt(1) == analytic._CANDIDATE_LIMIT
    pairs = _split_pairs((AT_THE_CANDIDATE_LIMIT, 2))
    assert pairs.block_top.size == isqrt(m) + 1


def test_one_task_at_the_candidate_limit_skips_the_exact_pass():
    """One burst of 2**42 tu scans: it waits 0 at every quantum, so all
    4,194,303 candidates tie on L and T. The largest is the guess, and none
    smaller can beat it."""
    with patch.object(analytic, "_corrections", wraps=analytic._corrections) as corrections:
        choice = best_quantum(TaskSet.from_bursts([AT_THE_CANDIDATE_LIMIT]))
    assert choice == (2**42, 0, 4194303)
    assert exact_passes(corrections) == 0


def test_one_candidate_past_the_limit_is_refused():
    # A burst of 5 adds isqrt(4) = 2 left ends: 2**22 + 1 candidates in all.
    with pytest.raises(ValueError) as error:
        _split_pairs((AT_THE_CANDIDATE_LIMIT, 5))
    assert str(error.value) == (
        f"cannot scan bursts up to {AT_THE_CANDIDATE_LIMIT} tu: they give 4194305 candidate "
        "quanta, more than the limit of 4194304"
    )


def test_one_burst_past_2_to_the_42_is_refused_before_allocating():
    """One tu past the burst that scans above, isqrt(2**42) = 2**21 gives
    2**22 + 1 left ends."""
    with patch.object(np, "asarray", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError) as error:
            best_quantum(TaskSet.from_bursts([2**42 + 1]))
    assert str(error.value) == (
        f"cannot scan bursts up to {2**42 + 1} tu: they give 4194305 candidate "
        "quanta, more than the limit of 4194304"
    )


@pytest.mark.parametrize("top", [2**53 - 1, 2**53 - 3, 3**33])
def test_lower_bounds_are_exact_below_2_to_the_53(top):
    """The float64 quotient truncates to the exact floor for every b - 1
    below 2**53, far past what the candidate limit lets a scan reach. The
    split of bursts top + 1, 2, top + 1, 1 is built by hand, since
    _split_pairs refuses their candidates; at a small top it matches."""

    def by_hand(top):
        columns = ([0, 1, top, top], [1, top - 1, top, top], [0, 1, 0, 0])
        none = np.empty(0, dtype=np.int64)  # no candidate blocks: L takes its quanta
        return _PairSplit(*(np.array(c, dtype=np.int64) for c in columns), none, none)

    small = _split_pairs((11, 2, 11, 1))
    assert [c.tolist() for c in by_hand(10)[:3]] == [c.tolist() for c in small[:3]]
    pairs = by_hand(top)
    quanta = quanta_near_the_root(top)
    assert _lower_bounds(pairs, quanta).tolist() == python_lower_bounds(pairs, quanta)


def test_bursts_past_2_to_the_53_never_reach_the_float_step():
    lower_bounds = Mock(wraps=_lower_bounds)
    with patch.object(analytic, "_lower_bounds", lower_bounds):
        with pytest.raises(ValueError, match="candidate quanta"):
            best_quantum(TaskSet.from_bursts([2**60]))
        with pytest.raises(ValueError, match="candidate quanta"):
            best_quantum(TaskSet.from_bursts([3, 2**53 + 1, 7]))
    assert lower_bounds.call_count == 0


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


def test_scan_calls_no_python_level_numpy_wrapper():
    """On a 48-task drain split, and on 21, 19, 5, ``_scan`` and
    ``_PairSplit.after_round`` call numpy's C entry points (ndarray methods,
    ufuncs) and never the Python wrappers of ``fromnumeric.py``
    (``numpy/_core/`` or ``numpy/core/``), in every round and through both
    exits of the scan: the drain set's scans never reach the exact pass,
    and the first scan of 21, 19, 5 does."""
    rng = np.random.default_rng(48)
    drain = np.exp(rng.uniform(0, np.log(1000), 48)).astype(np.int64).tolist()
    calls, rounds = Counter(), 0

    def count(frame, event, arg):
        if event == "call":
            calls[os.path.basename(frame.f_code.co_filename)] += 1

    with patch.object(analytic, "_corrections", wraps=analytic._corrections) as corrections:
        for bursts in (drain, [21, 19, 5]):
            pairs = _split_pairs(tuple(bursts))
            sys.setprofile(count)
            try:
                while True:
                    rounds += 1
                    quantum = analytic._scan(pairs)[0]
                    if quantum > pairs.top[-1]:
                        break
                    pairs = pairs.after_round(quantum)
            finally:
                sys.setprofile(None)
    assert 0 < exact_passes(corrections) < rounds
    assert calls["fromnumeric.py"] == 0


def assert_candidates_keep_the_argmin(tasks):
    """The breakpoint candidates must pick what the n x n cell kernel picks
    when run over every quantum in [1, largest burst]."""
    quantum, total = largest_minimizer(tasks.bursts, every_quantum(tasks))
    choice = best_quantum(tasks)
    assert choice.quantum == quantum
    assert choice.avg_waiting == Fraction(total, tasks.n)
    assert 1 <= choice.candidates_evaluated <= max(tasks.bursts)


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
