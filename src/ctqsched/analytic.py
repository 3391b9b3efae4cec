"""Closed-form waiting times for fixed-quantum round robin.

For a FIFO queue where every task arrives at time 0, fixed-quantum round
robin is regular enough that each task's timeline can be computed without
running it: how many whole quanta it burns before its final slice, when that
final slice starts, and therefore how long it spends waiting (a
:class:`TaskWait` row of :func:`waiting_profile`). Minimizing the resulting
total waiting time over the quanta in [1, largest burst] yields the quantum
with the smallest average wait (:func:`best_quantum`); that choice is the
decision rule the per-round CTQ scheduler applies between rounds.

One rule gives every task's wait. With nq_i = (b_i - 1) // tq, task i's
final slice starts once it has run nq_i full quanta and every other task k
has run min(b_k, cycles * tq): nq_i + 1 cycles for k ahead of i in the queue,
nq_i for k behind it. Its wait is that start less its own nq_i * tq, so

    wait_i = sum over k < i of min(b_k, (nq_i + 1) * tq)
           + sum over k > i of min(b_k, nq_i * tq).

:func:`waiting_profile` evaluates this rule task by task in plain integers.
The total needs no per-task timeline. A queue pair k < i adds
min(b_k, (nq_i + 1) * tq) to i's wait and min(b_i, nq_k * tq) to k's. Since
nq * tq < b <= (nq + 1) * tq, the two sum to a_k when nq_k <= nq_i and to
a_i + tq when nq_k > nq_i, with a = b + nq * tq.

The pair split divides the pairs by their bursts. A pair k < i is in order when
b_k <= b_i and inverted when b_k > b_i, with gap g = b_k - b_i:

* an in-order pair has nq_k <= nq_i, so it adds a_k;
* an inverted pair with g >= tq has nq_k > nq_i, so it adds a_i + tq;
* an inverted pair with g < tq has nq_k equal to nq_i or one more. It adds
  a_i + g in the first case and (a_i + g) + (tq - g) in the second, which
  for g < tq is when (b_i - 1) % tq + g >= tq.

So the total waiting time is T = L + the sum of tq - g over the inverted
pairs with g < tq whose full quanta differ, where

    L(tq) = a . w + tq * #{inverted pairs with g >= tq}
          + sum of g over the inverted pairs with g < tq,

and w_j = #{i > j : b_i >= b_j} + #{k < j : b_k > b_j} counts the pairs in
which task j adds its own a. The two pair terms come from one binary search
of tq in the sorted gaps and their prefix sums, so L costs O(n) per quantum
and T >= L. Only T walks pairs, and only the inverted ones with g < tq.

The scan does not need every quantum. On an interval where each task's
full_quanta = (b - 1) // tq is constant, every term of the total is either a
constant burst or a non-negative multiple of tq, so the total is A + S * tq
with S >= 0: its smallest value sits at the interval's left end. S == 0
only once tq reaches every burst but the queue's last, and from there T
stays constant up to the largest burst, itself a left end. So the left ends
of the intervals give the largest minimizing quantum exactly. A burst b has
O(sqrt(b)) intervals, so the scan takes O(sum of sqrt(b_i)) candidates
instead of the largest burst. :func:`best_quantum` computes L at all of
them and T only where L says the minimum can still be. CTQ carries the
split and its candidate blocks from round to round (:func:`_scan_rounds`).

All arithmetic is exact integer arithmetic, vectorized with numpy int64. Each
pair adds less than 2 * largest burst, so T stays below n * n * largest
burst, which :func:`_split_pairs` keeps below 2**63. Every total and partial
sum the scan stores adds up non-negative pieces of T, so none passes it, and
the per-pair values stay below 2 * largest burst; the scan builds no upper
bound such as a . w + tq * #{inverted pairs}, which could pass 2**63.
The split also rejects more than 4096 tasks and more than ``_CANDIDATE_LIMIT``
candidates. Property tests pin the scan to the sequential pure-Python
evaluation, and L and T to the n x n cell kernel over every quantum.

The one float step is L's full_quanta, (b - 1) // tq, taken as the float64
quotient truncated to int64. It is exact while every b - 1 stays below
2**53: a quotient that is not an integer lies at least 1 / tq below the next
integer, and IEEE division rounds it by at most (b - 1) / tq * 2**-53, which
is less than 1 / tq. The candidate limit, which the split checks first,
admits no b - 1 of 2**42 or more: its isqrt s would be at least 2**21, and
the s_max + 1 + sum(s) candidates more than 2**22.
"""

import operator
from collections.abc import Iterator
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from .model import _INT64_LIMIT, TaskSet

# The scan takes candidates in chunks of about this many cells (candidates x
# tasks for L, candidates x inverted pairs for T), so its int64 temporaries
# stay at 128 KiB each and are served from the heap, not from fresh pages on
# every call.
_PAIR_CHUNK_CELLS = 1 << 14

# The pair split compares every two tasks (n * n cells), and T at one
# candidate walks up to n * (n - 1) / 2 inverted pairs, so _split_pairs
# rejects more than isqrt(_SCAN_CELL_LIMIT) = 4096 tasks.
_SCAN_CELL_LIMIT = 1 << 24

# Bound on a scan's candidate quanta, checked before any allocation: with
# s = isqrt(b - 1) over the distinct bursts, s_max + 1 + sum(s), the length
# of the array _candidate_quanta concatenates, so a scan evaluates at most
# this many. It admits a single burst up to 2**42 (about 4.4e12) tu; larger
# inputs are rejected with ValueError.
_CANDIDATE_LIMIT = 1 << 22


class TaskWait(NamedTuple):
    """One task's row of :func:`waiting_profile`.

    ``full_quanta`` is the rule's nq = (b - 1) // tq, the whole quanta the
    task runs before its final slice: a burst that is an exact multiple of
    the quantum folds the boundary run into the final slice, so a burst of 8
    at quantum 4 has 1, not 2. It is the task's slice count minus one.
    ``last_slice_start`` is when that final slice starts, full_quanta * tq +
    ``waiting``, and ``waiting`` equals completion - burst.
    """

    task_id: int
    full_quanta: int
    last_slice_start: int
    waiting: int


class RoundRobinProfile(NamedTuple):
    """Closed-form per-task waiting times for one (task set, quantum) pair."""

    per_task: tuple[TaskWait, ...]
    total_waiting: int
    avg_waiting: Fraction


class QuantumChoice(NamedTuple):
    """Result of the candidate-quantum scan. ``quantum`` lies in
    [1, largest burst]; ties on average waiting go to the largest quantum.
    ``candidates_evaluated`` is how many quanta the scan evaluated, at most
    the largest burst and at most 2**22, the candidate limit."""

    quantum: int
    avg_waiting: Fraction
    candidates_evaluated: int


def waiting_profile(tasks: TaskSet, quantum: int) -> RoundRobinProfile:
    """Evaluate the waiting rule of the module docstring for every task under
    fixed RR, in plain integers and independent of the vectorized scan. Each
    wait equals completion - burst; the slice-by-slice simulator must agree.
    The quantum is read through ``operator.index``, like a task set's columns."""
    if (quantum := operator.index(quantum)) < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    bursts = tasks.bursts
    rows = []
    for i, (task_id, burst) in enumerate(zip(tasks.ids, bursts)):
        nq = (burst - 1) // quantum
        behind = nq * quantum
        ahead = behind + quantum
        waiting = sum(min(b, ahead) for b in bursts[:i])
        waiting += sum(min(b, behind) for b in bursts[i + 1 :])
        rows.append(TaskWait(task_id, nq, behind + waiting, waiting))
    total = sum(row.waiting for row in rows)
    return RoundRobinProfile(tuple(rows), total, Fraction(total, tasks.n))


def _candidate_quanta(pairs: "_PairSplit") -> np.ndarray:
    """The left end of every interval on which each (b - 1) // tq is
    constant, for the tasks that ``pairs`` splits.

    For m = b - 1 and s = isqrt(m), every tq in 1..s+1 is taken. Above s + 1,
    m // tq is some v in 1..s, constant on (m // (v + 1), m // v], or 0 from
    m + 1 = b on; every such left end lies in 1..s+1 or in {m // v + 1 :
    v = 1..s}. The last interval of all starts at the largest burst, its own
    m // 1 + 1. A block carried through quanta Q divides m - Q by more v
    than it needs, but a v past isqrt(m - Q) gives a quotient + 1 of at most
    isqrt(m - Q) + 1, already taken. The result is sorted, distinct and
    within [1, largest burst].
    """
    quotients = pairs.block_top // pairs.block_v
    quotients += 1
    root = isqrt(int(pairs.top[-1]))
    quanta = np.concatenate((np.arange(1, root + 2, dtype=np.int64), quotients))
    quanta.sort()
    # Sorting and dropping repeats here is faster than np.unique.
    fresh = np.empty(quanta.size, dtype=bool)
    fresh[0] = True
    np.not_equal(quanta[1:], quanta[:-1], out=fresh[1:])
    return quanta[fresh]


class _PairSplit(NamedTuple):
    """The queue as the scan needs it, from :func:`_split_pairs`; only tq is left to plug in."""

    top: np.ndarray  # b - 1 of every task, ascending; its w is n - 1, ..., 0
    gap: np.ndarray  # g of every inverted pair, ascending
    low: np.ndarray  # b_i - 1 of every inverted pair, in the order of gap
    block_top: np.ndarray  # m of each (m, v) of the candidate blocks, ascending
    block_v: np.ndarray  # v = 1..isqrt(m) within each distinct m's block

    def after_round(self, quantum: int) -> "_PairSplit":
        """The split after a round of ``quantum``: its survivors' suffix (:func:`_scan_rounds`)."""
        k, j = self.top.searchsorted(quantum), self.block_top.searchsorted(quantum)
        kept = self.low >= quantum
        return _PairSplit(
            self.top[k:] - quantum, self.gap[kept], self.low[kept] - quantum,
            self.block_top[j:] - quantum, self.block_v[j:],
        )


def _split_pairs(bursts: tuple[int, ...]) -> _PairSplit:
    """Split the queue pairs k < i into in-order and inverted ones (see the module
    docstring) and build the candidate blocks: v = 1..isqrt(m) for each distinct
    m = b - 1, ascending. Raises ``ValueError`` before allocating when n * n *
    largest burst reaches 2**63, n * n passes ``_SCAN_CELL_LIMIT`` or the
    candidates pass ``_CANDIDATE_LIMIT``, in that order."""
    n, largest = len(bursts), max(bursts)
    if n * n * largest >= _INT64_LIMIT:
        raise ValueError(
            f"cannot scan {n} tasks with a largest burst of {largest} tu: "
            "n * n * largest burst must stay below 2**63"
        )
    if n * n > _SCAN_CELL_LIMIT:
        raise ValueError(
            f"cannot scan {n} tasks: the pair split compares every two tasks, n * n cells, "
            f"more than the limit of {_SCAN_CELL_LIMIT} (at most {isqrt(_SCAN_CELL_LIMIT)} tasks)"
        )
    m = sorted({burst - 1 for burst in bursts})
    s = [isqrt(x) for x in m]
    if (count := s[-1] + 1 + sum(s)) > _CANDIDATE_LIMIT:
        raise ValueError(
            f"cannot scan bursts up to {largest} tu: they give {count} candidate "
            f"quanta, more than the limit of {_CANDIDATE_LIMIT}"
        )
    sizes = np.asarray(s, dtype=np.int64)
    block_top = np.asarray(m, dtype=np.int64).repeat(sizes)
    block_v = np.arange(1, block_top.size + 1, dtype=np.int64)  # v = 1..s in each block
    block_v -= (sizes.cumsum() - sizes).repeat(sizes)  # once its offset is taken off
    top = np.asarray(bursts, dtype=np.int64) - 1
    position = np.arange(n)
    inverted = top[:, None] > top  # b_k > b_i as (row k, column i)
    inverted &= position[:, None] < position  # and k < i
    gap, low = inverted.nonzero()  # k and i of each inverted pair,
    gap, low = top[gap], top[low]  # then b_k - 1 and b_i - 1
    gap -= low
    order = gap.argsort()
    top.sort()
    return _PairSplit(top, gap[order], low[order], block_top, block_v)


def _lower_bounds(pairs: _PairSplit, quanta: np.ndarray) -> np.ndarray:
    """L(tq) = b . w + tq * (nq . w) + tq * #{inverted, g >= tq}
    + sum{g : inverted, g < tq} for each quantum in ``quanta``. Candidates
    are taken in chunks of about ``_PAIR_CHUNK_CELLS`` cells of nq (at least
    one candidate). w counts the tasks after each in (burst, queue position)
    order, so in the order of top it is n - 1, ..., 0.

    nq = (b - 1) // tq is the float64 quotient truncated to int64. That is
    exact while every b - 1 stays below 2**53 (see the module docstring);
    :func:`_split_pairs` refuses any b - 1 of 2**42 or more."""
    bounds = np.empty(quanta.size, dtype=np.int64)
    weight = np.arange(pairs.top.size - 1, -1, -1, dtype=np.int64)
    pair_count = pairs.gap.size
    below = np.zeros(pair_count + 1, dtype=np.int64)  # below[j] is the sum of gap[:j]
    np.add.accumulate(pairs.gap, out=below[1:])
    step = max(1, _PAIR_CHUNK_CELLS // pairs.top.size)
    for lo in range(0, quanta.size, step):
        tq = quanta[lo : lo + step]
        part = bounds[lo : lo + tq.size]
        np.matmul((pairs.top / tq[:, None]).astype(np.int64), weight, out=part)
        short = pairs.gap.searchsorted(tq)  # inverted pairs with g < tq
        part += pair_count
        part -= short
        part *= tq
        part += below[short]
    bounds += int((pairs.top + 1) @ weight)  # b . w
    return bounds


def _corrections(pairs: _PairSplit, quanta: np.ndarray) -> np.ndarray:
    """T(tq) - L(tq) for each quantum in ``quanta``, which must ascend: the
    sum of tq - g over the inverted pairs with g < tq whose full_quanta
    differ, which for g < tq is when (b_i - 1) % tq >= tq - g.

    The pairs ascend in g, so those with g < tq are a prefix of them.
    Candidates are taken in chunks of about ``_PAIR_CHUNK_CELLS`` cells of
    the longest such prefix (at least one candidate).
    """
    short = pairs.gap.searchsorted(quanta)
    corrections = np.empty(quanta.size, dtype=np.int64)
    step = max(1, _PAIR_CHUNK_CELLS // max(1, int(short[-1])))
    for lo in range(0, quanta.size, step):
        tq = quanta[lo : lo + step, None]
        rest = tq - pairs.gap[: short[lo + tq.size - 1]]
        # Smaller quanta of the chunk also see pairs with g >= tq: they add 0.
        np.maximum(rest, 0, out=rest)
        differ = pairs.low[: rest.shape[1]] % tq >= rest
        np.add.reduce(rest, axis=1, where=differ, out=corrections[lo : lo + tq.size])
    return corrections


def _scan(pairs: _PairSplit) -> tuple[int, int, int]:
    """The scan of :func:`best_quantum` over the tasks that ``pairs`` splits:
    the largest minimizing quantum, its total waiting time and the number of
    candidates."""
    quanta = _candidate_quanta(pairs)
    bounds = _lower_bounds(pairs, quanta)
    # argmin takes the first minimum; scanning a reversed array makes that
    # the largest minimizing quantum.
    guess = bounds.size - 1 - int(bounds[::-1].argmin())
    ceiling = int(bounds[guess] + _corrections(pairs, quanta[guess : guess + 1])[0])
    keep = bounds < ceiling
    keep[guess:] |= bounds[guess:] == ceiling  # a smaller one can only tie
    (alive,) = keep.nonzero()
    if alive.size == 1:  # only the guess can reach its own T
        return int(quanta[guess]), ceiling, quanta.size
    totals = bounds[alive]
    totals += _corrections(pairs, quanta[alive])
    best = totals.size - 1 - int(totals[::-1].argmin())
    return int(quanta[alive[best]]), int(totals[best]), quanta.size


def _scan_rounds(bursts: tuple[int, ...], first: int | None = None) -> Iterator[tuple[int, int]]:
    """Each round of a CTQ run over ``bursts``, while a task is left: its
    quantum (``first`` in round 1 when given, else the largest minimizing
    quantum of the survivors' residuals) and its survivor count. A given
    ``first`` is yielded before any split, and ends the run if it finishes
    every task. The pairs are split once (:func:`_split_pairs` checks first)
    and sliced only when the caller asks for the next round.

    After quanta summing to Q the survivors are the tasks with b > Q, with
    residuals b - Q: a suffix of the split's ascending b - 1, in a fresh
    split's order, so the scan reads each w off its position. An inverted
    pair survives exactly when its smaller task does and keeps its gap, so
    the pairs stay sorted by gap; the carried candidate blocks give exactly
    the fresh candidates (:func:`_candidate_quanta`).
    """
    if first is not None:
        yield first, len(bursts)
        bursts = tuple(burst - first for burst in bursts if burst > first)
        if not bursts:
            return
    pairs = _split_pairs(bursts)
    while pairs.top.size:
        quantum = _scan(pairs)[0]
        yield quantum, pairs.top.size
        pairs = pairs.after_round(quantum)


def best_quantum(tasks: TaskSet) -> QuantumChoice:
    """Pick the quantum in [1, largest burst] minimizing average waiting time.

    The comparison is exact (integer total waiting; the task count is a
    constant divisor). Ties are broken toward the LARGEST minimizing quantum:
    a larger quantum never increases the number of context switches, so among
    equally good waits the cheaper schedule wins.

    Only the left ends of the intervals on which every task's full_quanta is
    constant are candidates (see the module docstring), and
    ``candidates_evaluated`` reports how many. The scan bounds and prunes
    them in three steps:

    1. the lower bound L at every candidate, O(n) each;
    2. the total T at the largest candidate minimizing L;
    3. T at every candidate whose L is below that T, or equal to it at or
       above the candidate of step 2, unless that candidate is the only
       one: then it is the answer.

    Every minimizer q has L(q) <= T(q) <= the T of step 2; a smaller
    candidate with L equal to that T can at best tie, and ties go to the
    larger quantum. So the answer reaches step 3, and it is the largest
    quantum minimizing T there.

    Raises ``ValueError`` where :func:`_split_pairs` does, before it allocates.
    """
    quantum, total, count = _scan(_split_pairs(tasks.bursts))
    return QuantumChoice(quantum, Fraction(total, tasks.n), count)
