"""Comparison harness: fixed round robin vs CTQ vs FCFS on seeded workloads.

For each generated workload the fixed-RR arm gets the strongest fair
baseline: its quantum is the one the candidate scan picks for the initial
set. The CTQ arm starts from that same choice and re-optimizes every round.
When that first quantum is at least the largest burst, CTQ finishes every
task in its first round, and all three arms are one schedule: fixed RR at
that quantum is the very ``run_rounds`` call CTQ made, and FCFS runs each
task once for its whole burst, as that round did. Such a workload builds
one schedule and one metrics report for its three rows; any other builds
each arm. Rows are exact (rationals rendered only at the CSV/JSON
boundary) and the whole run is a pure function of its arguments, so
repeated invocations are byte-identical.
"""

import json
from fractions import Fraction
from typing import NamedTuple

from .ctq import run_ctq
from .model import TaskSet, format_fraction, metrics_from_schedule
from .simulate import simulate_fcfs, simulate_fixed_rr
from .workload import generate

ALGORITHM_ORDER = ("rr", "ctq", "fcfs")


class ExperimentRow(NamedTuple):
    """One (workload, algorithm) result. Mean rows use workload_id "mean" and
    may carry fractional context-switch and makespan values."""

    workload_id: str
    n: int
    algorithm: str
    tq_policy: str
    avg_wt: Fraction
    avg_tat: Fraction
    context_switches: Fraction
    makespan: Fraction
    rounds: int | None = None
    tq_sequence: tuple[int, ...] | None = None


CSV_HEADER = ",".join(ExperimentRow._fields)


def _row(workload_id, tasks, algorithm, tq_policy, metrics, rounds=None, tq_sequence=None):
    return ExperimentRow(
        workload_id=workload_id,
        n=tasks.n,
        algorithm=algorithm,
        tq_policy=tq_policy,
        avg_wt=metrics.avg_waiting,
        avg_tat=metrics.avg_turnaround,
        context_switches=Fraction(metrics.total_context_switches),
        makespan=Fraction(metrics.makespan),
        rounds=rounds,
        tq_sequence=tq_sequence,
    )


def compare_workload(
    tasks: TaskSet, workload_id: str = "0"
) -> tuple[ExperimentRow, ExperimentRow, ExperimentRow]:
    """Run the three arms on one task set; rows in rr, ctq, fcfs order. The
    RR arm's quantum is CTQ's round-1 choice: the scan over the whole set.

    A one-round CTQ run is also the RR and FCFS schedule (module
    docstring), so both rows reuse its metrics; otherwise each arm is
    built here."""
    trace = run_ctq(tasks)
    quantum = trace.quantum_sequence[0]
    if len(trace.rounds) == 1:
        rr_metrics = fcfs_metrics = trace.metrics
    else:
        rr_metrics = metrics_from_schedule(simulate_fixed_rr(tasks, quantum))
        fcfs_metrics = metrics_from_schedule(simulate_fcfs(tasks))
    return (
        _row(workload_id, tasks, "rr", str(quantum), rr_metrics),
        _row(
            workload_id,
            tasks,
            "ctq",
            "optimized",
            trace.metrics,
            rounds=len(trace.rounds),
            tq_sequence=trace.quantum_sequence,
        ),
        _row(workload_id, tasks, "fcfs", "none", fcfs_metrics),
    )


def run_comparison(
    n: int, burst_min: int, burst_max: int, seed: int, runs: int
) -> list[ExperimentRow]:
    """Rows for ``runs`` seeded workloads plus one mean row per algorithm.

    Workload i uses seed ``seed + i`` (each hashed through SeedSequence, so
    adjacent seeds give independent streams). Ordering is deterministic:
    workloads by index, algorithms rr, ctq, fcfs; mean rows last.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    rows: list[ExperimentRow] = []
    for i in range(runs):
        tasks = generate(n, burst_min, burst_max, seed + i)
        rows.extend(compare_workload(tasks, workload_id=str(i)))

    for algorithm in ALGORITHM_ORDER:
        arm = [r for r in rows if r.algorithm == algorithm]
        rows.append(
            ExperimentRow(
                workload_id="mean",
                n=n,
                algorithm=algorithm,
                tq_policy="mean",
                avg_wt=_mean([r.avg_wt for r in arm]),
                avg_tat=_mean([r.avg_tat for r in arm]),
                context_switches=_mean([r.context_switches for r in arm]),
                makespan=_mean([r.makespan for r in arm]),
            )
        )
    return rows


def _mean(values: list[Fraction]) -> Fraction:
    """The mean of one or more Fractions. The sum starts from the first
    value, not from the int 0, so no int is promoted along the way."""
    return sum(values[1:], values[0]) / len(values)


def _rendered(rows: list[ExperimentRow]) -> list[list[object]]:
    """Each row's values in field order, with every rational rendered by
    :func:`format_fraction`; the other values are left as they are."""
    return [[format_fraction(v) if type(v) is Fraction else v for v in row] for row in rows]


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """One line per row under ``CSV_HEADER``. A missing value is an empty
    cell and a quantum sequence is joined with ``|``."""
    lines = [CSV_HEADER]
    for values in _rendered(rows):
        cells = [
            "" if v is None else "|".join(map(str, v)) if type(v) is tuple else str(v)
            for v in values
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ExperimentRow]) -> str:
    """A JSON list of rows keyed by the ``CSV_HEADER`` names; a quantum
    sequence becomes a list and a missing value null."""
    names = CSV_HEADER.split(",")
    return json.dumps([dict(zip(names, values)) for values in _rendered(rows)], indent=2) + "\n"
