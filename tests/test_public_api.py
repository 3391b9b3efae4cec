"""The package's exported names: the public surface grows or shrinks only
with an edit here."""

import ctqsched

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
