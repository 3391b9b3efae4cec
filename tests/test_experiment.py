"""The comparison harness: a one-round CTQ run is also its RR and FCFS arm."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import drain_bursts, task_sets
from ctqsched import (
    TaskSet,
    experiment,
    generate,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
)
from ctqsched.experiment import compare_workload
from reference import reference_compare_workload


@given(task_sets(), st.none() | st.integers(1, 80))
def test_one_round_ctq_is_the_rr_and_fcfs_schedule(tasks, first_quantum):
    trace = run_ctq(tasks, first_quantum)
    if len(trace.quantum_sequence) == 1:
        quantum = trace.quantum_sequence[0]
        assert simulate_fixed_rr(tasks, quantum) == trace.schedule
        assert simulate_fcfs(tasks) == trace.schedule


@pytest.mark.parametrize(
    "args, quanta",
    [
        ((12, 1, 5000, 1), (4753,)),
        ((3, 1, 20, 6), (11,)),
        ((3, 1, 20, 5), (1, 16)),
        ((48, 1, 1000, 1), None),
    ],
    ids=["one-round-12", "one-round-3", "two-rounds", "one-round-48"],
)
def test_rows_equal_the_reference(args, quanta):
    tasks = generate(*args)
    rows = compare_workload(tasks, "7")
    assert rows == reference_compare_workload(tasks, "7")
    if quanta is not None:
        assert rows[1].tq_sequence == quanta


@given(st.one_of(task_sets(), drain_bursts(max_n=12).map(TaskSet.from_bursts)))
def test_rows_equal_the_reference_on_any_set(tasks):
    assert compare_workload(tasks) == reference_compare_workload(tasks)


@pytest.fixture
def extra_arms(monkeypatch):
    """Every schedule ``compare_workload`` measures beyond CTQ's own: CTQ
    measures through ``ctq``'s reference to ``metrics_from_schedule``, so
    only the RR and FCFS arms reach ``experiment``'s."""
    measured = []
    measure = experiment.metrics_from_schedule

    def counting(schedule):
        measured.append(schedule)
        return measure(schedule)

    monkeypatch.setattr(experiment, "metrics_from_schedule", counting)
    return measured


def test_one_round_workload_builds_no_extra_arm(extra_arms):
    rows = compare_workload(generate(12, 1, 5000, 1))
    assert rows[1].tq_sequence == (4753,)
    assert extra_arms == []
    measured = [(r.avg_wt, r.avg_tat, r.context_switches, r.makespan) for r in rows]
    assert measured[0] == measured[1] == measured[2]


def test_multi_round_workload_builds_both_arms(extra_arms):
    # Workload 0 of `compare --n 3 --burst-min 1 --burst-max 20 --seed 5`.
    rows = compare_workload(generate(3, 1, 20, 5))
    assert rows[1].tq_sequence == (1, 16)
    assert len(extra_arms) == 2


@pytest.mark.parametrize("runs", [1, 3])
def test_mean_rows_average_each_arm(runs):
    rows = experiment.run_comparison(5, 1, 50, 9, runs)
    measured = ("avg_wt", "avg_tat", "context_switches", "makespan")
    for mean in rows[-3:]:
        arm = [r for r in rows[:-3] if r.algorithm == mean.algorithm]
        assert len(arm) == runs
        for name in measured:
            assert getattr(mean, name) == Fraction(sum(getattr(r, name) for r in arm), runs)
