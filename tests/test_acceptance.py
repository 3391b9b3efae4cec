"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run). Criteria 1-3 are exact reference values;
4-5 are exhaustive equivalence sweeps; 6 is the directional benchmark whose
recorded traces criterion 8 then re-verifies; 7 is byte-level determinism.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from ctqsched import (
    TaskSet,
    WorkloadSpec,
    best_quantum,
    generate,
    metrics_from_schedule,
    run_ctq,
    simulate_fcfs,
    simulate_fixed_rr,
    waiting_profile,
)
from ctqsched.cli import main
from reference import schedule_rounds, slices, task_slices


def announce(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return inner

    return decorate


@pytest.fixture(scope="module")
def benchmark_sweep():
    """30 seeded workloads, n in [5, 50], bursts in [1, 500]; shared by
    criteria 6 and 8 so the traces are computed once."""
    rng = random.Random(20260810)
    results = []
    start = time.perf_counter()
    for i in range(30):
        n = rng.randint(5, 50)
        tasks = generate(WorkloadSpec(n=n, burst_min=1, burst_max=500, seed=9000 + i))
        choice = best_quantum(tasks)
        rr = metrics_from_schedule(simulate_fixed_rr(tasks, choice.quantum))
        trace = run_ctq(tasks)
        results.append((tasks, rr, trace))
    elapsed = time.perf_counter() - start
    return results, elapsed


@announce(1, "fixed RR on 24/3/3 with quantum 4 reproduces the reference timeline")
def test_criterion_1_reference_timeline():
    tasks = TaskSet.from_bursts([24, 3, 3])

    def run_once():
        t0 = time.perf_counter()
        schedule = simulate_fixed_rr(tasks, 4)
        profile = waiting_profile(tasks, 4)
        report = metrics_from_schedule(schedule)
        return time.perf_counter() - t0, schedule, profile, report

    elapsed, schedule, profile, report = min(run_once() for _ in range(3))
    assert [s.start for s in slices(schedule)] == [0, 4, 7, 10, 14, 18, 22, 26]
    assert schedule.makespan == 30
    assert [t.full_quanta for t in profile.per_task] == [5, 0, 0]
    assert [t.last_slice_start for t in profile.per_task] == [26, 4, 7]
    assert [m.context_switches for m in report.per_task] == [1, 0, 0]
    assert elapsed < 0.001


@announce(2, "fixed RR, quantum 1, on 20/20/5/3/1: avg wait 17, turnaround 26.8, 44 switches")
def test_criterion_2_fixed_rr_baseline():
    tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
    report = metrics_from_schedule(simulate_fixed_rr(tasks, 1))
    assert report.avg_waiting == Fraction(17)
    assert report.avg_turnaround == Fraction(134, 5)
    assert report.total_context_switches == 44


@announce(3, "CTQ on 20/20/5/3/1 with first quantum 1: quanta 1,2,2,15 and avg wait 14.2")
def test_criterion_3_ctq_reference_run():
    trace = run_ctq(TaskSet.from_bursts([20, 20, 5, 3, 1]), first_quantum=1)
    assert trace.quantum_sequence == (1, 2, 2, 15)

    round2 = [s for s in slices(trace.schedule) if s.round == 2]
    assert [round2[0].start] + [s.end for s in round2] == [5, 7, 9, 11, 13]
    round4 = [s for s in slices(trace.schedule) if s.round == 4]
    assert [round4[0].start] + [s.end for s in round4] == [19, 34, 49]

    assert [m.completion for m in trace.metrics.per_task] == [34, 49, 19, 13, 5]
    assert trace.metrics.avg_waiting == Fraction(71, 5)
    assert trace.metrics.avg_turnaround == Fraction(24)
    assert trace.metrics.total_context_switches == 9


@announce(4, "closed form equals simulation on 1000 seeded sets, every quantum, in < 60 s")
def test_criterion_4_oracle_equivalence():
    rng = random.Random(12345)
    start = time.perf_counter()
    for _ in range(1000):
        tasks = TaskSet.from_bursts(
            [rng.randint(1, 60) for _ in range(rng.randint(1, 10))]
        )
        for quantum in range(1, max(tasks.bursts()) + 1):
            schedule = simulate_fixed_rr(tasks, quantum)
            report = metrics_from_schedule(schedule)
            profile = waiting_profile(tasks, quantum)
            for task, metrics, row in zip(tasks, report.per_task, profile.per_task):
                slices = task_slices(schedule, task.id)
                assert row.waiting == metrics.waiting
                assert row.full_quanta == len(slices) - 1
                assert row.last_slice_start == slices[-1].start
    assert time.perf_counter() - start < 60


@announce(5, "quantum = largest burst yields the FCFS slice sequence on 200 seeded sets")
def test_criterion_5_degenerate_quantum():
    rng = random.Random(54321)
    for _ in range(200):
        tasks = TaskSet.from_bursts(
            [rng.randint(1, 60) for _ in range(rng.randint(1, 10))]
        )
        rr = simulate_fixed_rr(tasks, max(tasks.bursts()))
        assert slices(rr) == slices(simulate_fcfs(tasks))


@announce(6, "CTQ beats best-quantum fixed RR on mean wait and turnaround over 30 workloads")
def test_criterion_6_benchmark_direction(benchmark_sweep):
    results, elapsed = benchmark_sweep
    runs = len(results)
    assert runs == 30

    rr_wait = sum(rr.avg_waiting for _, rr, _ in results) / runs
    ctq_wait = sum(t.metrics.avg_waiting for _, _, t in results) / runs
    rr_tat = sum(rr.avg_turnaround for _, rr, _ in results) / runs
    ctq_tat = sum(t.metrics.avg_turnaround for _, _, t in results) / runs
    rr_switches = sum(rr.total_context_switches for _, rr, _ in results) / runs
    ctq_switches = sum(t.metrics.total_context_switches for _, _, t in results) / runs

    assert ctq_wait < rr_wait
    assert ctq_tat < rr_tat
    assert ctq_switches <= rr_switches
    assert elapsed < 300


@announce(7, "repeated compare invocations emit byte-identical CSV")
def test_criterion_7_compare_determinism(tmp_path, capsys):
    args = [
        "compare", "--n", "10", "--burst-min", "1", "--burst-max", "500",
        "--seed", "2026", "--runs", "5",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    assert main(args) == 0
    stdout_once = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == stdout_once
    assert stdout_once.encode() == first.read_bytes()


@announce(8, "every re-optimized round quantum is reproducible from its recorded survivors")
def test_criterion_8_trace_self_consistency(benchmark_sweep):
    results, _ = benchmark_sweep
    checked = 0
    for tasks, _, trace in results:
        for record, round_ in zip(trace.rounds, schedule_rounds(tasks, trace.schedule)):
            if record.number < 2:
                continue
            residuals = TaskSet.from_bursts([r for _, r in round_.survivors])
            assert best_quantum(residuals).quantum == record.quantum
            checked += 1
    assert checked > 0
