"""Deterministic round-robin scheduling toolkit.

Closed-form waiting times for fixed-quantum round robin, a dispatch
simulator that emits every slice and doubles as their ground truth, and the
Changeable Time Quantum (CTQ) scheduler that re-optimizes the quantum every
round.
"""

from .analytic import (
    QuantumChoice,
    RoundRobinProfile,
    TaskWait,
    best_quantum,
    waiting_profile,
)
from .ctq import CtqTrace, run_ctq
from .experiment import (
    ExperimentRow,
    compare_workload,
    rows_to_csv,
    rows_to_json,
    run_comparison,
)
from .model import (
    InvariantViolation,
    MetricsReport,
    Schedule,
    TaskMetrics,
    TaskSet,
    format_fraction,
    metrics_from_schedule,
)
from .simulate import simulate_fcfs, simulate_fixed_rr
from .workload import TaskFileError, generate, load_tasks, save_tasks

__version__ = "0.1.0"

__all__ = [
    "QuantumChoice",
    "RoundRobinProfile",
    "TaskWait",
    "best_quantum",
    "waiting_profile",
    "CtqTrace",
    "run_ctq",
    "ExperimentRow",
    "compare_workload",
    "rows_to_csv",
    "rows_to_json",
    "run_comparison",
    "InvariantViolation",
    "MetricsReport",
    "Schedule",
    "TaskMetrics",
    "TaskSet",
    "format_fraction",
    "metrics_from_schedule",
    "simulate_fcfs",
    "simulate_fixed_rr",
    "TaskFileError",
    "generate",
    "load_tasks",
    "save_tasks",
]
