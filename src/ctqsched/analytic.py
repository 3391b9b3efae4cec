"""Closed-form waiting times for fixed-quantum round robin.

For a FIFO queue where every task arrives at time 0, fixed-quantum round
robin is regular enough that each task's timeline can be computed without
running it: how many whole quanta it burns before its final slice
(:func:`full_quanta`), when that final slice starts (:func:`last_slice_start`),
and therefore how long it spends waiting. Minimizing the resulting total
waiting time over the quanta in [1, largest burst] yields the quantum with the
smallest average wait (:func:`best_quantum`); that choice is the decision rule
the per-round CTQ scheduler applies between rounds.

The total needs no per-task timeline. With nq = (b - 1) // tq and
a = b + nq * tq for every task, the total waiting time is the sum over queue
pairs k < i of min(a_k, a_i + tq). Of each pair, the task with fewer full
quanta finishes first (k, ahead in the queue, on a tie), and the pair adds
its burst plus what the other task has run by then; the two cases are set out
in :func:`_total_waiting_by_quantum`.

The scan does not need every quantum. On an interval where each task's
full_quanta = (b - 1) // tq is constant, every term of the total is either a
constant burst or a non-negative multiple of tq, so the total is A + S * tq
with S >= 0: its smallest value sits at the interval's left end, and when
S == 0 the right end ties with it. Evaluating only the two ends of every such
interval therefore finds the largest minimizing quantum exactly. A burst b has
O(sqrt(b)) intervals, so the scan costs O(n * n * sum of sqrt(b_i)) instead of
O(n * n * largest burst).

All arithmetic is exact integer arithmetic. The scan is vectorized with numpy
int64, which is exact while n * n * largest burst stays below 2**63
(:func:`best_quantum` rejects larger inputs, more than 4096 tasks, and
inputs with more than ``_CANDIDATE_LIMIT`` candidate quanta); property tests
pin it to the sequential pure-Python evaluation, and its totals to those of
the n x n cell kernel it replaced over every quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .model import _INT64_LIMIT, TaskSet

# The scan takes candidates in chunks of about this many pair cells, so its
# two int64 temporaries stay at 128 KiB each and are served from the heap,
# not from fresh pages on every call.
_PAIR_CHUNK_CELLS = 1 << 14

# A chunk holds at least one candidate, whose two pair temporaries take
# n * (n - 1) cells, so best_quantum rejects more than
# isqrt(_SCAN_CELL_LIMIT) = 4096 tasks.
_SCAN_CELL_LIMIT = 1 << 24

# Most candidate quanta one scan may evaluate, checked before any allocation.
# A burst b contributes about 3 * sqrt(b) candidates, so this admits a single
# burst up to about 2e12 tu; larger inputs are rejected with ValueError.
_CANDIDATE_LIMIT = 1 << 22


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
    [1, largest burst]; ties on average waiting go to the largest quantum.
    ``candidates_evaluated`` is how many quanta the scan evaluated, at most
    the largest burst."""

    quantum: int
    avg_waiting: Fraction
    candidates_evaluated: int


def waiting_profile(tasks: TaskSet, quantum: int) -> RoundRobinProfile:
    """Evaluate the closed-form waiting time of every task under fixed RR.

    waiting = last_slice_start - full_quanta * quantum, which equals
    completion - burst; the slice-by-slice simulator must agree exactly.
    """
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


def _candidate_quanta(bursts: tuple[int, ...]) -> np.ndarray:
    """Both ends of every interval on which each (b - 1) // tq is constant.

    For m = b - 1 and s = isqrt(m), every tq in 1..s+1 is taken. Above s + 1,
    m // tq is some v in 1..s, constant on (m // (v + 1), m // v], or 0 from
    m + 1 = b on; every such end lies in 1..s+1 or in {m // v, m // v + 1 :
    v = 1..s}. The last interval of all ends at the largest burst, which is
    its own m // 1 + 1. The result is sorted, distinct and within
    [1, largest burst]. Raises ``ValueError`` before allocating when the
    count exceeds ``_CANDIDATE_LIMIT``.
    """
    m = [b - 1 for b in set(bursts)]
    s = [isqrt(x) for x in m]
    count = max(s) + 1 + 2 * sum(s)
    if count > _CANDIDATE_LIMIT:
        raise ValueError(
            f"cannot scan bursts up to {max(bursts)} tu: they give {count} candidate "
            f"quanta, more than the limit of {_CANDIDATE_LIMIT}"
        )
    sizes = np.asarray(s, dtype=np.int64)
    mm = np.repeat(np.asarray(m, dtype=np.int64), sizes)
    # v runs 1..s within each burst's block of the flattened arrays.
    v = np.arange(1, mm.size + 1, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    quotients = mm // v
    return np.unique(
        np.concatenate((np.arange(1, max(s) + 2, dtype=np.int64), quotients, quotients + 1))
    )


def _total_waiting_by_quantum(bursts: tuple[int, ...], quanta: np.ndarray) -> np.ndarray:
    """Total waiting time for each quantum in ``quanta``, vectorized.

    Total waiting is a sum over queue pairs k < i of what each task of the
    pair runs while the other is still waiting to finish. With nq the full
    quanta of a task and a = b + nq * tq:

    * when nq_k <= nq_i, k finishes first, in the same cycle as i or an
      earlier one, and by then i has run nq_k full quanta: the pair adds
      b_k + nq_k * tq = a_k;
    * when nq_k > nq_i, i finishes first, and by then k, ahead of it, has run
      nq_i + 1 full quanta: the pair adds b_i + (nq_i + 1) * tq = a_i + tq.

    Since nq * tq < b <= (nq + 1) * tq, a lies in (2 nq tq, (2 nq + 1) tq],
    so a_k < a_i + tq exactly when nq_k <= nq_i, and the total is the sum of
    min(a_k, a_i + tq) over the n * (n - 1) / 2 pairs. Every a is below
    2 * b, so the total stays below n * n * largest burst.

    Candidates are taken in chunks of about ``_PAIR_CHUNK_CELLS`` pair cells
    (at least one candidate), and each chunk works in place in its two pair
    temporaries.
    """
    b = np.asarray(bursts, dtype=np.int64)
    later, earlier = np.tril_indices(b.size, -1)  # every pair k < i as (i, k)
    totals = np.empty(quanta.size, dtype=np.int64)
    step = max(1, _PAIR_CHUNK_CELLS // max(1, later.size))
    for lo in range(0, quanta.size, step):
        tq = quanta[lo : lo + step, None]
        a = (b - 1) // tq * tq
        a += b
        first = a[:, earlier]
        second = a[:, later]
        second += tq
        np.minimum(first, second, out=first)
        np.add.reduce(first, axis=1, out=totals[lo : lo + tq.size])
    return totals


def best_quantum(tasks: TaskSet) -> QuantumChoice:
    """Pick the quantum in [1, largest burst] minimizing average waiting time.

    The comparison is exact (integer total waiting; the task count is a
    constant divisor). Ties are broken toward the LARGEST minimizing quantum:
    a larger quantum never increases the number of context switches, so among
    equally good waits the cheaper schedule wins.

    Only the ends of the intervals on which every task's full_quanta is
    constant are evaluated (see the module docstring): the total waiting time
    is non-decreasing and linear inside each interval, so those ends include
    the largest minimizer. That is O(sum of sqrt(b_i)) quanta at
    n * (n - 1) / 2 pairs each; ``candidates_evaluated`` reports how many.

    Raises ``ValueError`` before scanning when n * n * largest burst reaches
    2**63, where the int64 totals would stop being exact, when one candidate's
    pair temporaries would take more than ``_SCAN_CELL_LIMIT`` cells
    (n > 4096), or when there are more than ``_CANDIDATE_LIMIT`` candidate
    quanta.
    """
    bursts = tasks.bursts()
    # Each pair adds less than 2 * largest burst, so the totals stay below
    # n * n * largest burst.
    if tasks.n * tasks.n * max(bursts) >= _INT64_LIMIT:
        raise ValueError(
            f"cannot scan {tasks.n} tasks with a largest burst of {max(bursts)} tu: "
            "n * n * largest burst must stay below 2**63"
        )
    if tasks.n * tasks.n > _SCAN_CELL_LIMIT:
        raise ValueError(
            f"cannot scan {tasks.n} tasks: one candidate quantum takes n * n cells, "
            f"more than the limit of {_SCAN_CELL_LIMIT} (at most {isqrt(_SCAN_CELL_LIMIT)} tasks)"
        )
    quanta = _candidate_quanta(bursts)
    totals = _total_waiting_by_quantum(bursts, quanta)
    # np.argmin takes the first minimum; scanning the reversed array makes
    # that the largest minimizing quantum.
    best = totals.size - 1 - int(np.argmin(totals[::-1]))
    return QuantumChoice(
        quantum=int(quanta[best]),
        avg_waiting=Fraction(int(totals[best]), tasks.n),
        candidates_evaluated=int(quanta.size),
    )
