"""The package's exported names: the public surface grows or shrinks only
with an edit here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctqsched
from ctqsched.experiment import CSV_HEADER

PUBLIC_NAMES = [
    "CtqTrace",
    "ExperimentRow",
    "InvariantViolation",
    "MetricsReport",
    "QuantumChoice",
    "RoundRecord",
    "RoundRobinProfile",
    "Schedule",
    "Task",
    "TaskFileError",
    "TaskMetrics",
    "TaskSet",
    "TaskWait",
    "WorkloadSpec",
    "best_quantum",
    "compare_workload",
    "format_fraction",
    "generate",
    "load_tasks",
    "metrics_from_schedule",
    "rows_to_csv",
    "rows_to_json",
    "run_comparison",
    "run_ctq",
    "save_tasks",
    "simulate_fcfs",
    "simulate_fixed_rr",
    "waiting_profile",
]


def test_exported_names_are_pinned():
    assert sorted(ctqsched.__all__) == PUBLIC_NAMES
    assert all(hasattr(ctqsched, name) for name in PUBLIC_NAMES)


TASKS = ctqsched.TaskSet.from_bursts([5, 2])
_TASK_WAITS = (
    "(TaskWait(task_id=1, full_quanta=2, last_slice_start=6, waiting=2), "
    "TaskWait(task_id=2, full_quanta=0, last_slice_start=2, waiting=2))"
)
_METRICS = (
    "MetricsReport(per_task=(TaskMetrics(task_id=1, completion=7, turnaround=7, waiting=2, "
    "context_switches=1, slice_count=2), TaskMetrics(task_id=2, completion=4, turnaround=4, "
    "waiting=2, context_switches=0, slice_count=1)), total_waiting=4, avg_waiting=Fraction(2, 1), "
    "avg_turnaround=Fraction(11, 2), total_context_switches=1, makespan=7)"
)
_ROUNDS = (
    "(RoundRecord(number=1, quantum=2, chosen_by='optimized'), "
    "RoundRecord(number=2, quantum=3, chosen_by='optimized'))"
)

# Each record type with one instance, its field names and that instance's
# repr, as they were when the records were frozen dataclasses.
RECORDS = [
    pytest.param(
        lambda: ctqsched.waiting_profile(TASKS, 2).per_task[0],
        ("task_id", "full_quanta", "last_slice_start", "waiting"),
        "TaskWait(task_id=1, full_quanta=2, last_slice_start=6, waiting=2)",
        id="TaskWait",
    ),
    pytest.param(
        lambda: ctqsched.waiting_profile(TASKS, 2),
        ("per_task", "total_waiting", "avg_waiting", "quantum"),
        f"RoundRobinProfile(per_task={_TASK_WAITS}, total_waiting=4, "
        "avg_waiting=Fraction(2, 1), quantum=2)",
        id="RoundRobinProfile",
    ),
    pytest.param(
        lambda: ctqsched.best_quantum(TASKS),
        ("quantum", "avg_waiting", "candidates_evaluated"),
        "QuantumChoice(quantum=2, avg_waiting=Fraction(2, 1), candidates_evaluated=4)",
        id="QuantumChoice",
    ),
    pytest.param(
        lambda: ctqsched.run_ctq(TASKS).metrics,
        ("per_task", "total_waiting", "avg_waiting", "avg_turnaround",
         "total_context_switches", "makespan"),
        _METRICS,
        id="MetricsReport",
    ),
    pytest.param(
        lambda: ctqsched.run_ctq(TASKS).rounds[0],
        ("number", "quantum", "chosen_by"),
        "RoundRecord(number=1, quantum=2, chosen_by='optimized')",
        id="RoundRecord",
    ),
    pytest.param(
        lambda: ctqsched.run_ctq(TASKS),
        ("rounds", "schedule", "metrics"),
        f"CtqTrace(rounds={_ROUNDS}, schedule=Schedule(3 slices, makespan=7), metrics={_METRICS})",
        id="CtqTrace",
    ),
    pytest.param(
        lambda: ctqsched.compare_workload(TASKS)[1],
        ("workload_id", "n", "algorithm", "tq_policy", "avg_wt", "avg_tat",
         "context_switches", "makespan", "rounds", "tq_sequence"),
        "ExperimentRow(workload_id='0', n=2, algorithm='ctq', tq_policy='optimized', "
        "avg_wt=Fraction(2, 1), avg_tat=Fraction(11, 2), context_switches=Fraction(1, 1), "
        "makespan=Fraction(7, 1), rounds=2, tq_sequence=(2, 3))",
        id="ExperimentRow",
    ),
    pytest.param(
        lambda: ctqsched.WorkloadSpec(3, 1, 20, 5),
        ("n", "burst_min", "burst_max", "seed"),
        "WorkloadSpec(n=3, burst_min=1, burst_max=20, seed=5)",
        id="WorkloadSpec",
    ),
]


@pytest.mark.parametrize("build, fields, text", RECORDS)
def test_record_surface(build, fields, text):
    record = build()
    assert type(record)._fields == fields
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_csv_header_names_the_row_fields():
    assert CSV_HEADER.split(",") == list(ctqsched.ExperimentRow._fields)


def test_import_loads_no_dataclasses():
    # numpy is imported first so that only what ctqsched itself loads counts.
    code = (
        "import numpy, sys; pre = 'dataclasses' in sys.modules; import ctqsched.cli; "
        "sys.exit(not pre and 'dataclasses' in sys.modules)"
    )
    src = str(Path(ctqsched.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
