"""Changeable Time Quantum (CTQ): round robin with a per-round quantum.

Each round every surviving task runs once, in FIFO order, for at most the
round's quantum. Before every round, :func:`run_ctq`'s own loop re-chooses
the quantum by running the closed-form candidate scan of
:func:`ctqsched.analytic.best_quantum` over the survivors' residual work, so
short stragglers get flushed out early while a tail of long tasks
degenerates into cheap FCFS-sized slices. The quanta fix the schedule, which
:func:`ctqsched.simulate.run_rounds` then builds in one pass.

The quantum applies for exactly one round and is then re-optimized, even if
no task finished; waiting already accrued in earlier rounds is ignored by the
scan because it offsets every candidate equally.

The scan's pair split is made once per run and then sliced. With Q the sum
of the quanta so far, the survivors are the tasks with b > Q, each with
residual b - Q; the split holds the b - 1 ascending, so they are a suffix of
it. A survivor keeps its w, which counts only tasks after it in (burst,
queue position) order, all of which survive, so the suffix of the w,
n' - 1, ..., 0, is a fresh split's. An inverted pair survives exactly when
its smaller task does, and keeps its gap, so the pairs stay sorted by gap.
A survivor's candidate block, v = 1..isqrt(b - 1), holds every v its
residual r needs. A v past isqrt(r - 1) gives a left end of at most
isqrt(r - 1) + 1, which the scan takes anyway, so the carried blocks give
exactly the fresh candidates (:mod:`ctqsched.analytic`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic import _scan, _split_pairs
from .model import MetricsReport, Schedule, TaskSet, check_total_burst, metrics_from_schedule
from .simulate import _check_slice_count, run_rounds

Survivors = tuple[tuple[int, int], ...]  # (task_id, residual tu), queue order


@dataclass(frozen=True)
class RoundRecord:
    """What one round saw and did. ``survivors_before`` holds the residual
    work of every task entering the round, in their original queue order."""

    number: int
    quantum: int
    survivors_before: Survivors
    completed: tuple[int, ...]
    chosen_by: str  # "user_supplied" or "optimized"


@dataclass(frozen=True)
class CtqTrace:
    rounds: tuple[RoundRecord, ...]
    schedule: Schedule
    metrics: MetricsReport

    @property
    def quantum_sequence(self) -> tuple[int, ...]:
        return tuple(r.quantum for r in self.rounds)


def run_ctq(tasks: TaskSet, first_quantum: int | None = None) -> CtqTrace:
    """Run CTQ to completion and return the full trace.

    Round 1 uses ``first_quantum`` when supplied; otherwise it, like every
    later round, uses the quantum that minimizes the closed-form average
    waiting time of the current residual set. Each round's record is written
    when its quantum is chosen: the survivors entering it and the quantum
    already say which of them finish in it. The chosen quanta then build the
    schedule in one call of :func:`~ctqsched.simulate.run_rounds`.

    The total burst is checked before the first scan, and the slice bound
    after each round's scan, on the survivors dispatched so far. The first
    round that scans splits its residuals' pairs, checking the scan's
    bounds, and later rounds slice that split (module docstring).
    """
    if first_quantum is not None and first_quantum < 1:
        raise ValueError(f"first quantum must be at least 1 tu, got {first_quantum}")
    check_total_burst(sum(tasks.bursts()))

    rounds: list[RoundRecord] = []
    survivors: Survivors = tuple(zip(tasks.ids, tasks.bursts()))
    pairs = None  # the pair split of the survivors, from the first round that scans
    dispatched = 0
    while survivors:
        if rounds or first_quantum is None:
            if pairs is None:
                pairs = _split_pairs(tuple(residual for _, residual in survivors))
            else:
                pairs = pairs.after_round(rounds[-1].quantum)
            quantum, chosen_by = _scan(pairs)[0], "optimized"
        else:
            quantum, chosen_by = first_quantum, "user_supplied"
        dispatched += len(survivors)
        _check_slice_count(dispatched)
        completed = tuple(task_id for task_id, residual in survivors if residual <= quantum)
        rounds.append(RoundRecord(len(rounds) + 1, quantum, survivors, completed, chosen_by))
        survivors = tuple(
            (task_id, residual - quantum) for task_id, residual in survivors if residual > quantum
        )

    schedule = run_rounds(tasks, [r.quantum for r in rounds])
    return CtqTrace(tuple(rounds), schedule, metrics_from_schedule(schedule, tasks))
