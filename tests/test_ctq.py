"""Per-round quantum re-optimization."""

from fractions import Fraction
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
    ctq,
    metrics_from_schedule,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
)
from reference import optimal_total_waiting, slices

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
        assert [r.completed for r in trace.rounds] == [(5,), (4,), (3,), (1, 2)]
        assert trace.rounds[1].survivors_before == ((1, 19), (2, 19), (3, 4), (4, 2))
        assert trace.rounds[2].survivors_before == ((1, 17), (2, 17), (3, 2))
        assert trace.rounds[3].survivors_before == ((1, 15), (2, 15))

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
            run_ctq(TaskSet((), ()))
        with pytest.raises(ValueError):
            run_ctq(MIXED_FIVE, first_quantum=0)


@settings(max_examples=100, deadline=None)
@given(tasks=task_sets(max_n=8, max_burst=50), first=st.one_of(st.none(), st.integers(1, 60)))
def test_trace_self_consistency(tasks, first):
    trace = run_ctq(tasks, first)

    # The schedule already passed metric validation (conservation, contiguity)
    # inside run_ctq; check the trace bookkeeping against it.
    dispatched = {task.id: 0 for task in tasks}
    rows = slices(trace.schedule)
    index = 0
    for record in trace.rounds:
        # Residuals entering the round match the work not yet dispatched.
        for task_id, residual in record.survivors_before:
            burst = next(t.burst for t in tasks if t.id == task_id)
            assert residual == burst - dispatched[task_id] > 0
        for _ in record.survivors_before:
            s = rows[index]
            assert s.round == record.number
            dispatched[s.task_id] += s.length
            index += 1
    assert index == len(rows)

    # Each re-optimized quantum is reproducible from the recorded survivors
    # and lies within [1, max residual].
    for record in trace.rounds:
        residuals = [r for _, r in record.survivors_before]
        if record.chosen_by == "optimized":
            rebuilt = TaskSet.from_bursts(residuals)
            assert best_quantum(rebuilt).quantum == record.quantum
            assert 1 <= record.quantum <= max(residuals)

    # Survivor counts never grow, and the last round drains the queue.
    counts = [len(r.survivors_before) for r in trace.rounds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert len(trace.rounds[-1].completed) >= 1
    assert sum(len(r.completed) for r in trace.rounds) == tasks.n

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
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]), tasks)
    assert trace.metrics.total_waiting <= rr.total_waiting


def test_ctq_can_trade_switches_for_wait():
    """There is no such guarantee for context switches: here CTQ waits 1 tu
    less in total than RR at its first quantum, and switches 3 times more."""
    tasks = TaskSet.from_bursts([4, 20, 3, 14, 2, 10])
    trace = run_ctq(tasks)
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, 5), tasks)
    assert trace.quantum_sequence == (5, 1, 4, 4, 6)
    assert (trace.metrics.total_waiting, trace.metrics.total_context_switches) == (121, 9)
    assert (rr.total_waiting, rr.total_context_switches) == (122, 6)


@settings(max_examples=200, deadline=None)
@given(tasks=task_sets(max_n=5, max_burst=12))
def test_optimal_sequence_bounds_ctq_which_bounds_rr(tasks):
    """CTQ picks each round's quantum greedily, so some sequence of quanta
    may wait less; none waits less than the optimum."""
    trace = run_ctq(tasks)
    rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]), tasks)
    optimal = optimal_total_waiting([task.burst for task in tasks])
    assert optimal <= trace.metrics.total_waiting <= rr.total_waiting


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
        rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]), tasks)
        assert trace.metrics.total_waiting <= rr.total_waiting
        multi_round += len(trace.rounds) > 1
        strictly_less += trace.metrics.total_waiting < rr.total_waiting
    assert (multi_round, strictly_less) == (289, 284)


def carried_splits(tasks, first=None):
    """The pair split each scanning round of ``run_ctq(tasks, first)`` scanned,
    with that round's number and residuals, and how often the pairs were
    split afresh."""
    split = Mock(wraps=analytic._split_pairs)
    with (
        patch.object(ctq, "_scan", wraps=analytic._scan) as scan,
        patch.object(ctq, "_split_pairs", split),
        patch.object(analytic, "_split_pairs", split),
    ):
        trace = run_ctq(tasks, first)
    optimized = [r for r in trace.rounds if r.chosen_by == "optimized"]
    assert scan.call_count == len(optimized)
    rounds = [
        (record.number, [residual for _, residual in record.survivors_before], call.args[0])
        for record, call in zip(optimized, scan.call_args_list)
    ]
    return rounds, split.call_count


def assert_carried_splits_are_fresh(tasks, first=None):
    """In every round that scans, the split CTQ carried equals a fresh split
    of the round's residuals: the same top and w, and the same multiset of
    (g, b_i - 1) pairs, ascending in g (equal gaps may come in another
    order). Returns the carried splits by round number."""
    rounds, split_count = carried_splits(tasks, first)
    assert split_count == min(1, len(rounds))
    for _, residuals, carried in rounds:
        fresh = analytic._split_pairs(residuals)
        assert carried.top.tolist() == fresh.top.tolist()
        assert carried.weight.tolist() == fresh.weight.tolist()
        gaps = carried.gap.tolist()
        assert gaps == sorted(gaps)
        assert sorted(zip(gaps, carried.low.tolist())) == sorted(
            zip(fresh.gap.tolist(), fresh.low.tolist())
        )
    return {number: carried for number, _, carried in rounds}


@settings(max_examples=100, deadline=None)
@given(bursts=drain_bursts(), first=st.one_of(st.none(), st.integers(1, 1000)))
def test_carried_split_equals_a_fresh_one_in_every_round(bursts, first):
    assert_carried_splits_are_fresh(TaskSet.from_bursts(bursts), first)


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

    @pytest.mark.parametrize("bursts", [[13], [500] * 12, [20, 20, 5, 3, 1]])
    def test_a_supplied_first_quantum_splits_at_round_two(self, bursts):
        splits = assert_carried_splits_are_fresh(TaskSet.from_bursts(bursts), 1)
        assert min(splits) == 2


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
