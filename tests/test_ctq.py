"""Per-round quantum re-optimization."""

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
    metrics_from_schedule,
    run_ctq,
    simulate,
    simulate_fcfs,
    simulate_fixed_rr,
    waiting_profile,
)
from reference import (
    best_quantum_sequence,
    optimal_total_waiting,
    reference_candidate_quanta,
    schedule_rounds,
    sjf_total_waiting,
    slices,
)

MIXED_FIVE = TaskSet.from_bursts([20, 20, 5, 3, 1])


class TestRunCtq:
    def test_reference_run(self):
        trace = run_ctq(MIXED_FIVE, first_quantum=1)
        assert trace.quantum_sequence == (1, 2, 2, 15)
        assert [m.completion for m in trace.metrics.per_task] == [34, 49, 19, 13, 5]
        assert trace.metrics.avg_waiting == Fraction(71, 5)
        assert trace.metrics.avg_turnaround == Fraction(24)
        assert trace.metrics.total_context_switches == 9

        assert [r.chosen_by for r in trace.rounds] == [
            "user_supplied", "optimized", "optimized", "optimized",
        ]
        rounds = schedule_rounds(MIXED_FIVE, trace.schedule)
        assert [r.completed for r in rounds] == [(5,), (4,), (3,), (1, 2)]
        assert rounds[1].survivors == ((1, 19), (2, 19), (3, 4), (4, 2))
        assert rounds[2].survivors == ((1, 17), (2, 17), (3, 2))
        assert rounds[3].survivors == ((1, 15), (2, 15))

    def test_single_task_runs_to_completion_in_one_round(self):
        trace = run_ctq(TaskSet.from_bursts([13]))
        assert trace.quantum_sequence == (13,)
        assert trace.metrics.per_task[0].waiting == 0
        assert trace.metrics.total_context_switches == 0

    def test_equal_bursts_degenerate_to_fcfs(self):
        tasks = TaskSet.from_bursts([15, 15])
        trace = run_ctq(tasks)
        assert trace.quantum_sequence == (15,)
        assert slices(trace.schedule) == slices(simulate_fcfs(tasks))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            run_ctq(MIXED_FIVE, first_quantum=0)

    @pytest.mark.parametrize("first", [None, 1])
    def test_a_huge_total_is_refused_before_any_scan(self, first):
        # The scan would refuse these bursts too (n * n * largest burst past
        # 2**63), but the total-burst bound is checked first.
        tasks = TaskSet.from_bursts([5 * 10**18, 5 * 10**18])
        with patch.object(analytic, "_split_pairs") as split, pytest.raises(ValueError) as error:
            run_ctq(tasks, first)
        assert str(error.value) == (
            "total burst 10000000000000000000 tu is too large: schedules hold times below 2**63 tu"
        )
        assert split.call_count == 0

    def test_a_supplied_first_quantum_is_counted_before_any_split(self):
        # Round 1 dispatches all five tasks, past a bound of 4 slices, so the
        # run stops there, before it splits the survivors' pairs.
        with (
            patch.object(simulate, "_SLICE_LIMIT", 4),
            patch.object(analytic, "_split_pairs") as split,
            pytest.raises(ValueError) as error,
        ):
            run_ctq(MIXED_FIVE, first_quantum=1)
        assert str(error.value) == (
            "schedule needs more than 4 slices; use a larger quantum or fewer tasks"
        )
        assert split.call_count == 0

    def test_a_long_tail_stops_at_the_slice_bound(self):
        """This queue runs 13,066 rounds to the end, nearly all at quantum 1.
        With the bound at 60 slices, the loop stops right after round 11's
        scan: the six survivors of rounds 1-11 would take 66 slices."""
        tasks = TaskSet.from_bursts([30944, 27499, 14803, 13056, 10038, 2892])
        with (
            patch.object(simulate, "_SLICE_LIMIT", 60),
            patch.object(analytic, "_scan", wraps=analytic._scan) as scan,
            pytest.raises(ValueError) as error,
        ):
            run_ctq(tasks)
        assert str(error.value) == (
            "schedule needs more than 60 slices; use a larger quantum or fewer tasks"
        )
        assert scan.call_count == 11


@settings(max_examples=100, deadline=None)
@given(tasks=task_sets(max_n=8, max_burst=50), first=st.one_of(st.none(), st.integers(1, 60)))
def test_trace_self_consistency(tasks, first):
    trace = run_ctq(tasks, first)

    # The schedule already passed metric validation (conservation, contiguity)
    # inside run_ctq; it runs one round per record, and each record's quantum.
    rounds = schedule_rounds(tasks, trace.schedule)
    assert [r.number for r in rounds] == [r.number for r in trace.rounds]

    # Each re-optimized quantum is reproducible from the round's survivors
    # and lies within [1, max residual].
    for record, round_ in zip(trace.rounds, rounds):
        residuals = [r for _, r in round_.survivors]
        assert all(s.length == min(record.quantum, r) for s, r in zip(round_.slices, residuals))
        if record.chosen_by == "optimized":
            rebuilt = TaskSet.from_bursts(residuals)
            assert best_quantum(rebuilt).quantum == record.quantum
            assert 1 <= record.quantum <= max(residuals)

    # Survivor counts never grow, and the last round drains the queue.
    counts = [len(r.survivors) for r in rounds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert len(rounds[-1].completed) >= 1
    assert sum(len(r.completed) for r in rounds) == tasks.n

    # Deterministic.
    assert run_ctq(tasks, first) == trace


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(), first=st.one_of(st.none(), st.integers(1, 60)))
def test_ctq_never_waits_longer_than_rr_at_its_first_quantum(tasks, first):
    """Round 1 of CTQ is round 1 of fixed RR at CTQ's first quantum q, and
    after it RR(q) carries on as RR(q) over the survivors' residuals. Each
    survivor's wait is its round-1 wait plus its wait in the residual
    problem, where CTQ waits at most as long as RR at the residuals' best
    quantum (by induction on the rounds), which waits at most as long as
    RR(q). That holds whether q is optimized or given."""
    trace = run_ctq(tasks, first)
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]))
    assert trace.metrics.total_waiting <= rr.total_waiting


@settings(max_examples=200, deadline=None)
@given(tasks=st.one_of(task_sets(12, 1000), drain_bursts().map(TaskSet.from_bursts)))
def test_ctq_never_waits_more_than_twice_sjf(tasks):
    """CTQ waits at most as long as RR at its first quantum, which minimizes
    fixed RR's wait over every quantum, so at most as long as RR(1). At
    quantum 1 a queue pair k < i adds min(b_k, b_i) + min(b_i, b_k - 1) to
    the total, at most twice the min(b_k, b_i) it adds under SJF."""
    rr1 = waiting_profile(tasks, 1).total_waiting
    assert run_ctq(tasks).metrics.total_waiting <= rr1 <= 2 * sjf_total_waiting(tasks.bursts())


@settings(max_examples=200, deadline=None)
@given(bursts=st.sets(st.integers(1, 10**6), min_size=1, max_size=12))
def test_rr_at_quantum_1_waits_twice_sjf_on_decreasing_queues(bursts):
    """With b_k > b_i in every pair k < i, min(b_i, b_k - 1) is b_i: RR(1)
    adds exactly 2 * min(b_k, b_i) per pair."""
    queue = sorted(bursts, reverse=True)
    rr1 = waiting_profile(TaskSet.from_bursts(queue), 1).total_waiting
    assert rr1 == 2 * sjf_total_waiting(queue)


@pytest.mark.parametrize(
    "bursts,ctq_total,sjf_total",
    [
        ([2, 1], 2, 1),  # twice SJF exactly
        # B, 1, B - 1 runs FCFS and waits 2B + 1 against SJF's B + 1.
        ([10, 1, 9], 21, 11),
        ([1000, 1, 999], 2001, 1001),
    ],
)
def test_ctq_against_sjf_where_the_bound_is_tight(bursts, ctq_total, sjf_total):
    trace = run_ctq(TaskSet.from_bursts(bursts))
    assert trace.quantum_sequence == (max(bursts),)
    assert (trace.metrics.total_waiting, sjf_total_waiting(bursts)) == (ctq_total, sjf_total)


def test_ctq_can_trade_switches_for_wait():
    """There is no such guarantee for context switches: here CTQ waits 1 tu
    less in total than RR at its first quantum, and switches 3 times more."""
    tasks = TaskSet.from_bursts([4, 20, 3, 14, 2, 10])
    trace = run_ctq(tasks)
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, 5))
    assert trace.quantum_sequence == (5, 1, 4, 4, 6)
    assert (trace.metrics.total_waiting, trace.metrics.total_context_switches) == (121, 9)
    assert (rr.total_waiting, rr.total_context_switches) == (122, 6)


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=5, max_burst=12))
def test_optimal_sequence_bounds_ctq_which_bounds_rr(tasks):
    """CTQ picks each round's quantum greedily, so some sequence of quanta
    may wait less; none waits less than the optimum."""
    trace = run_ctq(tasks)
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]))
    optimal = optimal_total_waiting([task.burst for task in tasks])
    assert optimal <= trace.metrics.total_waiting <= rr.total_waiting


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=5, max_burst=12))
def test_best_quantum_sequence_is_the_optimum(tasks):
    """The shortest path over the burst levels waits what the exhaustive
    search waits, and its quanta, each round ending on a burst, give a
    schedule that waits exactly that."""
    bursts = tasks.bursts()
    total, quanta = best_quantum_sequence(bursts)
    assert total == optimal_total_waiting(bursts)
    offered = [sum(quanta[:r]) for r in range(1, len(quanta) + 1)]
    assert set(offered) <= set(bursts) and offered[-1] == max(bursts)
    assert metrics_from_schedule(simulate.run_rounds(tasks, quanta)).total_waiting == total


def test_greedy_is_not_optimal():
    """CTQ's first scan picks 6 (FCFS) and waits 17 tu in total; quantum 2,
    then 4, waits 16."""
    tasks = TaskSet.from_bursts([6, 5, 2])
    trace = run_ctq(tasks)
    assert (trace.quantum_sequence, trace.metrics.total_waiting) == ((6,), 17)
    assert optimal_total_waiting([6, 5, 2]) == 16
    two_then_four = run_ctq(tasks, first_quantum=2)
    assert (two_then_four.quantum_sequence, two_then_four.metrics.total_waiting) == ((2, 4), 16)


def test_ctq_matters_on_bimodal_bursts(bimodal_workloads):
    """On the bimodal family CTQ almost always rescans to a new quantum and
    waits strictly less than fixed RR at its first quantum."""
    multi_round = strictly_less = 0
    for tasks in bimodal_workloads:
        trace = run_ctq(tasks)
        rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]))
        assert trace.metrics.total_waiting <= rr.total_waiting
        multi_round += len(trace.rounds) > 1
        strictly_less += trace.metrics.total_waiting < rr.total_waiting
    assert (multi_round, strictly_less) == (289, 284)


def carried_splits(tasks, first=None):
    """The pair split each scanning round of ``run_ctq(tasks, first)`` scanned,
    with that round's number and residuals, and how often the pairs were
    split afresh."""
    with (
        patch.object(analytic, "_scan", wraps=analytic._scan) as scan,
        patch.object(analytic, "_split_pairs", wraps=analytic._split_pairs) as split,
    ):
        trace = run_ctq(tasks, first)
    optimized = [
        round_
        for record, round_ in zip(trace.rounds, schedule_rounds(tasks, trace.schedule))
        if record.chosen_by == "optimized"
    ]
    assert scan.call_count == len(optimized)
    rounds = [
        (round_.number, [residual for _, residual in round_.survivors], call.args[0])
        for round_, call in zip(optimized, scan.call_args_list)
    ]
    return rounds, split.call_count


def assert_carried_splits_are_fresh(tasks, first=None):
    """In every round that scans, the split CTQ carried equals a fresh split
    of the round's residuals: the same top, and the same multiset of
    (g, b_i - 1) pairs, ascending in g (equal gaps may come in another
    order). Its blocks give exactly the fresh candidates, the left ends of
    the residuals' intervals. Returns the carried splits by round number."""
    rounds, split_count = carried_splits(tasks, first)
    assert split_count == min(1, len(rounds))
    for _, residuals, carried in rounds:
        fresh = analytic._split_pairs(residuals)
        assert carried.top.tolist() == fresh.top.tolist()
        gaps = carried.gap.tolist()
        assert gaps == sorted(gaps)
        assert sorted(zip(gaps, carried.low.tolist())) == sorted(
            zip(fresh.gap.tolist(), fresh.low.tolist())
        )
        quanta = analytic._candidate_quanta(carried)
        assert quanta.tolist() == reference_candidate_quanta(residuals)
        assert np.array_equal(quanta, analytic._candidate_quanta(fresh))
    return {number: carried for number, _, carried in rounds}


@settings(max_examples=100, deadline=None)
@given(bursts=drain_bursts(), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_carried_split_equals_a_fresh_one_in_every_round(bursts, first):
    assert_carried_splits_are_fresh(TaskSet.from_bursts(bursts), first)


@settings(max_examples=100, deadline=None)
@given(bursts=drain_bursts(), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_carried_candidates_pick_what_fresh_ones_pick(bursts, first):
    """A fresh split's candidates are exactly the left ends of its residuals'
    intervals, and a carried split's scan returns the fresh split's largest
    minimizing quantum and total in every round."""
    rounds, _ = carried_splits(TaskSet.from_bursts(bursts), first)
    for _, residuals, carried in rounds:
        fresh = analytic._split_pairs(residuals)
        assert analytic._candidate_quanta(fresh).tolist() == reference_candidate_quanta(residuals)
        assert analytic._scan(carried)[:2] == analytic._scan(fresh)[:2]


class TestCarriedSplit:
    def test_single_task(self):
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts([13]))
        assert list(splits) == [1]
        assert splits[1].gap.size == 0

    def test_equal_bursts_have_no_inverted_pairs(self):
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts([500] * 12))
        assert list(splits) == [1]
        assert splits[1].gap.size == 0

    def test_the_carry_drops_every_pair(self):
        # Quantum 1 finishes the 1; the 3 and 4 left are in order.
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts([4, 5, 1]))
        assert list(splits) == [1, 2]
        assert (splits[1].gap.size, splits[2].gap.size) == (2, 0)

    def test_a_carried_block_may_pass_its_residual(self):
        # After quanta 1 and 2 the 5 has residual 2, but its block still
        # holds v = 2 from m = 4: the quotient (4 - 3) // 2 is 0, and its
        # left end 1 is already a candidate.
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts([31, 5, 3]))
        assert list(splits) == [1, 2, 3, 4]
        carried = splits[3]
        assert (carried.block_top // carried.block_v == 0).any()
        quanta = [1, 2, 3, 4, 5, 6, 7, 10, 14, 28]
        assert analytic._candidate_quanta(carried).tolist() == quanta

    @pytest.mark.parametrize("bursts", [[13], [500] * 12, [20, 20, 5, 3, 1]])
    def test_a_supplied_first_quantum_splits_at_round_two(self, bursts):
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts(bursts), 1)
        assert min(splits) == 2


def assert_scan_rounds_are_ctqs_rounds(bursts, first=None):
    """``_scan_rounds`` yields CTQ's quanta, a supplied first one included,
    each with the number of rows of that round in CTQ's schedule."""
    tasks = TaskSet.from_bursts(bursts)
    trace = run_ctq(tasks, first)
    yields = list(analytic._scan_rounds(tuple(bursts), first))
    assert [quantum for quantum, _ in yields] == list(trace.quantum_sequence)
    rows = [len(round_.slices) for round_ in schedule_rounds(tasks, trace.schedule)]
    assert [survivors for _, survivors in yields] == rows


@settings(max_examples=100, deadline=None)
@given(bursts=drain_bursts(), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_scan_rounds_are_ctqs_rounds(bursts, first):
    assert_scan_rounds_are_ctqs_rounds(bursts, first)


@pytest.mark.parametrize("bursts", [[13], [500] * 12, [20, 20, 5, 3, 1]])
def test_scan_rounds_are_ctqs_rounds_explicit(bursts):
    # A first quantum of 20 finishes all of 20, 20, 5, 3, 1 in round 1, and
    # the generator must return there: a split of no tasks would raise.
    for first in (None, 1, 20):
        assert_scan_rounds_are_ctqs_rounds(bursts, first)


def test_a_ctq_run_splits_once_and_builds_no_task_set():
    """On a 48-task drain set, CTQ splits the pairs once, in round 1, and
    builds no TaskSet for the survivors of any later round."""
    rng = np.random.default_rng(48)
    bursts = np.exp(rng.uniform(0, np.log(1000), 48)).astype(np.int64).tolist()
    tasks = TaskSet.from_bursts(bursts)
    with patch.object(TaskSet, "from_bursts", wraps=TaskSet.from_bursts) as build:
        rounds, split_count = carried_splits(tasks)
    assert len(rounds) == 4
    assert (split_count, build.call_count) == (1, 0)
