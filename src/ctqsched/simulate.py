"""The schedule builder and the executors on it: fixed round robin and FCFS.

Every task arrives at time 0, so each of these policies, and CTQ in
:mod:`ctqsched.ctq`, runs every survivor once per round, in queue order, for
min(quantum, residual) tu. A schedule is then fixed by its sequence of
per-round quanta, and :func:`run_rounds` builds it from that sequence in one
vectorized pass. Its one sort puts the slices in round order: a radix sort on
a one-byte key while every round index fits in a byte, otherwise a timsort
over the per-task runs (a two-byte radix key loses to it). Fixed RR offers
one quantum that holds until every task has finished, FCFS offers the
largest burst, and CTQ passes the quanta its own round loop chose. The
executors emit the full timeline as a columnar
:class:`~ctqsched.model.Schedule` of slots and ends, from which its starts
and rounds are read; they are the baseline arms of every
experiment and the ground truth the closed-form math in
:mod:`ctqsched.analytic` is checked against.

Two bounds keep a schedule exact and finite, and both are checked before the
columns are allocated: the total burst must stay below 2**63 tu (the columns
are int64), and the schedule may hold at most ``_SLICE_LIMIT`` slices. Past
either, :func:`run_rounds` raises ``ValueError``.
"""

from collections.abc import Sequence
from itertools import accumulate, repeat

import numpy as np

from .model import Schedule, TaskSet, check_total_burst

# Most slices one schedule may hold, checked before the columns are allocated.
# Fixed RR at quantum 1 reaches it when the bursts add up to about 4.2e6 tu;
# building 4.19e6 slices peaks at 128 MiB (tracemalloc) and takes 0.04 s on
# 2 tasks and 0.08 s on 200 (best of 5) on a 2-vCPU 2.1 GHz Xeon VM.
_SLICE_LIMIT = 1 << 22


def run_rounds(tasks: TaskSet, quanta: Sequence[int]) -> Schedule:
    """Dispatch every survivor once per round until all work is done.

    Round r (1-based) offers every survivor ``quanta[r - 1]`` tu, in queue
    order, and the last quantum holds for every later round. Each survivor
    runs min(quantum, residual) tu; a task finishing exactly at its quantum
    completes within that slice.

    The schedule is built without a per-round loop. With W the work offered
    before each round, clamped at the total burst (which every offer past it
    acts as, and which keeps it in int64), task i runs in every round whose
    W is below its burst: those of the sequence, then ceil(rest / last
    quantum) more. Its slices are laid out task by task: each runs its
    round's full offer but the last, which runs what is left. They are then
    stably sorted by dispatch index into round order, and the ends come
    from one cumulative sum over the whole schedule. The sort is used only
    for that order: the schedule keeps each slice's slot and end, and reads
    its round off the slot order (see :class:`~ctqsched.model.Schedule`).

    Its temporaries peak at about 33 bytes a slice (``tracemalloc``), so a
    call touches few fresh heap pages. A slice's dispatch index is its
    position less its task's first, a repeat of the task starts. The task
    column ``who`` is needed only in round order, so it is built after the
    sort, once the byte key is dropped, and never shares the peak with the
    key and the sort's workspace. The gathers into round order write into
    spent buffers: ``slot`` into the dispatch index's, and ``end`` (the
    slice lengths, summed in place) into ``who``'s, so the two columns are
    distinct int64 arrays.

    The sort key depends on the round count. While no task runs more than
    256 rounds, every index fits in a byte, and numpy's stable sort on a
    type of 16 bits or less is an O(S) radix sort, one pass over the byte
    key. Past 256 rounds the int64 index is sorted as it is: a timsort that
    merges the n ascending per-task runs. A two-byte key is not used: its
    radix sort takes two passes, and past 256 rounds it lost to the timsort
    on most shapes measured (the sort alone, on a 2-vCPU 2.1 GHz Xeon VM),
    taking 1.05 to 5.2 times as long, the worst with 5 tasks of up to
    60,000 rounds; it won only with many tasks of few rounds (0.8 times as
    long with 300 tasks of up to 300 rounds).

    No quantum, a quantum below 1 tu, a total burst of 2**63 tu or more, or
    more than ``_SLICE_LIMIT`` slices raises ``ValueError``, checked in that
    order; an empty task set never gets here, since ``TaskSet`` refuses one.
    """
    if (least := min(quanta)) < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {least}")
    bursts = tasks.bursts()
    total = sum(bursts)
    check_total_burst(total)
    offers = [*map(min, quanta, repeat(total))]
    listed, last = len(offers), offers[-1]  # rounds past the sequence offer ``last``
    offered = np.array([*map(min, accumulate(offers, initial=0), repeat(total))], dtype=np.int64)
    burst = np.array(bursts, dtype=np.int64)
    rest = np.maximum(burst - offered[listed], 0)
    taken = offered[:listed].searchsorted(burst) - (-rest // last)
    count = int(np.add.reduce(taken))
    _check_slice_count(count)

    ends = np.add.accumulate(taken)
    dispatch = np.arange(count, dtype=np.int64)
    dispatch -= (ends - taken).repeat(taken)
    # A slice runs its round's offer; "clip" gives rounds past the list the last.
    length = np.array(offers, dtype=np.int64).take(dispatch, mode="clip")
    final = np.minimum(taken - 1, listed)
    length[ends - 1] = burst - offered[final] - (taken - 1 - final) * last
    # A byte key holds every dispatch index when no task runs past round 256.
    key = dispatch.astype(np.uint8) if taken.max() <= 256 else dispatch
    order = key.argsort(kind="stable")
    del key  # freed before ``who`` is built
    who = np.arange(tasks.n, dtype=np.int64).repeat(taken)
    # Each gather writes into a spent buffer; "clip" keeps numpy from
    # buffering ``out``, and ``order`` is always in range.
    slot = who.take(order, mode="clip", out=dispatch)
    end = length.take(order, mode="clip", out=who)
    np.add.accumulate(end, out=end)
    return Schedule(tasks, slot, end)


def _check_slice_count(count: int) -> None:
    if count > _SLICE_LIMIT:
        raise ValueError(
            f"schedule needs more than {_SLICE_LIMIT} slices; "
            "use a larger quantum or fewer tasks"
        )


def simulate_fixed_rr(tasks: TaskSet, quantum: int) -> Schedule:
    """Fixed-quantum round robin over a cyclic FIFO queue.

    Each dispatch runs min(quantum, remaining) tu; a task finishing exactly at
    the quantum boundary completes within that slice, and finished tasks leave
    the queue.
    """
    return run_rounds(tasks, [quantum])


def simulate_fcfs(tasks: TaskSet) -> Schedule:
    """First-come first-served: one slice per task, in queue order (a single
    round with a quantum no task exceeds)."""
    return run_rounds(tasks, [max(tasks.bursts())])
