"""Closed-form waiting times for fixed-quantum round robin.

For a FIFO queue where every task arrives at time 0, fixed-quantum round
robin is regular enough that each task's timeline can be computed without
running it: how many whole quanta it burns before its final slice
(:func:`full_quanta`), when that final slice starts (:func:`last_slice_start`),
and therefore how long it spends waiting. Scanning the resulting total
waiting time over every candidate quantum yields the quantum with the
smallest average wait (:func:`best_quantum`); that scan is the decision rule
the per-round CTQ scheduler applies between rounds.

All arithmetic is exact integer arithmetic. The candidate scan is vectorized
with numpy int64, which is exact while n * n * largest burst stays below
2**63 (:func:`best_quantum` rejects larger inputs); a property test pins it
to the sequential pure-Python evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import TaskSet

# Chunk the quantum axis so the 3-D candidate scan never materializes more
# than this many int64 cells at once.
_SCAN_CELL_LIMIT = 1 << 24

# Every value the scan forms is at most n * n * largest burst, so int64
# arithmetic is exact while that product stays below this bound.
_INT64_LIMIT = 1 << 63


def full_quanta(burst: int, quantum: int) -> int:
    """Number of whole quanta a task runs before its final slice.

    A burst that is an exact multiple of the quantum folds the boundary run
    into the final slice, so ``full_quanta(8, 4)`` is 1, not 2. Under
    fixed-quantum round robin this always equals (number of slices) - 1.
    """
    if burst < 1:
        raise ValueError(f"burst must be at least 1 tu, got {burst}")
    if quantum < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    if burst % quantum == 0:
        return burst // quantum - 1
    return burst // quantum


def last_slice_start(tasks: TaskSet, quantum: int, position: int) -> int:
    """Start time of the final slice the task at queue ``position`` receives.

    ``position`` is 1-based queue order. The value is assembled from how much
    CPU time every other task gets before this task's final dispatch:

    * a task that finishes earlier contributes its whole burst;
    * an equal-quanta task ahead in the queue also finishes first (its final
      slice lands earlier in the same cycle), so it too contributes its burst;
    * a task still unfinished at that point contributes one quantum per cycle
      it ran, which is one cycle more for queue positions ahead of this task.
    """
    if quantum < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    if not 1 <= position <= tasks.n:
        raise IndexError(f"queue position {position} out of range 1..{tasks.n}")
    bursts = tasks.bursts()
    i = position - 1
    mine = full_quanta(bursts[i], quantum)

    if mine == 0:
        # First slice is also the last: everything ahead runs once first.
        start = 0
        for b in bursts[:i]:
            start += quantum if full_quanta(b, quantum) > 0 else b
        return start

    start = mine * quantum
    for k, b in enumerate(bursts):
        if k == i:
            continue
        other = full_quanta(b, quantum)
        if other < mine:
            start += b
        elif other == mine:
            start += b if k < i else mine * quantum
        else:
            start += (mine + 1) * quantum if k < i else mine * quantum
    return start


@dataclass(frozen=True)
class TaskWait:
    task_id: int
    full_quanta: int
    last_slice_start: int
    waiting: int


@dataclass(frozen=True)
class RoundRobinProfile:
    """Closed-form per-task waiting times for one (task set, quantum) pair."""

    per_task: tuple[TaskWait, ...]
    total_waiting: int
    avg_waiting: Fraction
    quantum: int


@dataclass(frozen=True)
class QuantumChoice:
    """Result of the candidate-quantum scan. ``quantum`` lies in
    [1, largest burst]; ties on average waiting go to the largest quantum."""

    quantum: int
    avg_waiting: Fraction
    candidates_evaluated: int


def waiting_profile(tasks: TaskSet, quantum: int) -> RoundRobinProfile:
    """Evaluate the closed-form waiting time of every task under fixed RR.

    waiting = last_slice_start - full_quanta * quantum, which equals
    completion - burst; the slice-by-slice simulator must agree exactly.
    """
    if tasks.n == 0:
        raise ValueError("cannot profile an empty task set")
    rows = []
    total = 0
    for position in range(1, tasks.n + 1):
        task = tasks[position - 1]
        nq = full_quanta(task.burst, quantum)
        start = last_slice_start(tasks, quantum, position)
        waiting = start - nq * quantum
        rows.append(TaskWait(task.id, nq, start, waiting))
        total += waiting
    return RoundRobinProfile(tuple(rows), total, Fraction(total, tasks.n), quantum)


def _total_waiting_by_quantum(bursts: tuple[int, ...]) -> np.ndarray:
    """Total waiting time for every quantum in 1..max(bursts), vectorized.

    Uses the identity that the time task k runs before task i's final slice
    starts is min(burst_k, cycles * quantum), where k gets one extra cycle
    when it sits ahead of i in the queue. Summing that over k (and dropping
    the k == i term, which is exactly full_quanta(i) * quantum) gives i's
    waiting time.
    """
    b = np.asarray(bursts, dtype=np.int64)
    n = b.size
    lbt = int(b.max())
    earlier = np.tril(np.ones((n, n), dtype=np.int64), k=-1)  # earlier[i, k] = 1 iff k < i
    totals = np.empty(lbt, dtype=np.int64)
    step = max(1, _SCAN_CELL_LIMIT // (n * n))
    for lo in range(0, lbt, step):
        tq = np.arange(lo + 1, min(lo + step, lbt) + 1, dtype=np.int64)
        nq = (b[None, :] - 1) // tq[:, None]  # full_quanta, branch-free
        cap = (nq[:, :, None] + earlier[None, :, :]) * tq[:, None, None]
        ran_ahead = np.minimum(b[None, None, :], cap).sum(axis=2)
        totals[lo : lo + tq.size] = (ran_ahead - nq * tq[:, None]).sum(axis=1)
    return totals


def best_quantum(tasks: TaskSet) -> QuantumChoice:
    """Pick the quantum in [1, largest burst] minimizing average waiting time.

    The comparison is exact (integer total waiting; the task count is a
    constant divisor). Ties are broken toward the LARGEST minimizing quantum:
    a larger quantum never increases the number of context switches, so among
    equally good waits the cheaper schedule wins.

    Raises ``ValueError`` before scanning when n * n * largest burst reaches
    2**63, where the int64 totals would stop being exact.
    """
    if tasks.n == 0:
        raise ValueError("cannot choose a quantum for an empty task set")
    bursts = tasks.bursts()
    if tasks.n * tasks.n * max(bursts) >= _INT64_LIMIT:
        raise ValueError(
            f"cannot scan {tasks.n} tasks with a largest burst of {max(bursts)} tu: "
            "n * n * largest burst must stay below 2**63"
        )
    totals = _total_waiting_by_quantum(bursts)
    # np.argmin takes the first minimum; scanning the reversed array makes
    # that the largest minimizing quantum.
    quantum = totals.size - int(np.argmin(totals[::-1]))
    return QuantumChoice(
        quantum=quantum,
        avg_waiting=Fraction(int(totals[quantum - 1]), tasks.n),
        candidates_evaluated=int(totals.size),
    )
