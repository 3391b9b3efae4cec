"""Changeable Time Quantum (CTQ): round robin with a per-round quantum.

Each round every surviving task runs once, in FIFO order, for at most the
round's quantum. Round 1's quantum may be supplied; before every other
round the quantum is re-chosen by the closed-form candidate scan of
:func:`ctqsched.analytic.best_quantum` over the survivors' residual work, so
short stragglers get flushed out early while a tail of long tasks
degenerates into cheap FCFS-sized slices. The quanta fix the schedule, which
:func:`ctqsched.simulate.run_rounds` then builds in one pass, so a run's
:class:`CtqTrace` holds its quanta and what they give, and nothing else.

The quantum applies for exactly one round and is then re-optimized, even if
no task finished; waiting already accrued in earlier rounds is ignored by the
scan because it offsets every candidate equally.

:func:`ctqsched.analytic._scan_rounds` yields every round, a supplied
round 1 first, and carries the scan's pair split from round to round;
:func:`run_ctq`'s one loop sees only each round's quantum and survivors.
"""

import operator
from typing import NamedTuple

from .analytic import _scan_rounds
from .model import MetricsReport, Schedule, TaskSet, check_total_burst, metrics_from_schedule
from .simulate import _check_slice_count, run_rounds


class CtqTrace(NamedTuple):
    """A CTQ run: each round's quantum, in round order, and the schedule and
    metrics they give. Round 1's quantum is the supplied ``first_quantum``
    when there is one; the scan chose every other. The tasks entering round
    r, and those finishing in it, are the schedule's rows of round r."""

    quantum_sequence: tuple[int, ...]
    schedule: Schedule
    metrics: MetricsReport


def run_ctq(tasks: TaskSet, first_quantum: int | None = None) -> CtqTrace:
    """Run CTQ to completion and return the full trace.

    Round 1 uses ``first_quantum`` when supplied; otherwise it, like every
    later round, uses the quantum that minimizes the closed-form average
    waiting time of the current residual set, until no task is left. The
    chosen quanta then build the schedule in one call of
    :func:`~ctqsched.simulate.run_rounds`.

    ``first_quantum`` is read through ``operator.index`` and checked first,
    then the total burst; then, after each round, the slice bound on the
    survivors dispatched so far. Round 1 is checked before the pair split,
    which checks the scan's bounds on what round 1 leaves.
    """
    if first_quantum is not None and (first_quantum := operator.index(first_quantum)) < 1:
        raise ValueError(f"first quantum must be at least 1 tu, got {first_quantum}")
    bursts = tasks.bursts
    check_total_burst(sum(bursts))

    quanta: list[int] = []
    dispatched = 0
    for quantum, survivors in _scan_rounds(bursts, first_quantum):
        dispatched += survivors
        _check_slice_count(dispatched)
        quanta.append(quantum)

    schedule = run_rounds(tasks, quanta)
    return CtqTrace(tuple(quanta), schedule, metrics_from_schedule(schedule))
