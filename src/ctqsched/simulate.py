"""The round loop and the executors built on it: fixed round robin and FCFS.

Every task arrives at time 0, so each of these policies, and CTQ in
:mod:`ctqsched.ctq`, runs every survivor once per round, in queue order, for
min(share, residual) tu. They differ only in how the share is picked, which
:func:`run_rounds` takes as a callable, and in how many rounds a share holds.
Fixed RR keeps its quantum until every task has finished, and FCFS finishes
every task in its first round, so each of their schedules is one phase,
built in one vectorized pass; CTQ re-chooses its quantum before every round,
so each of its phases is one round. The executors emit the full timeline as
a columnar :class:`~ctqsched.model.Schedule`; they are the baseline arms of
every experiment and the ground truth the closed-form math in
:mod:`ctqsched.analytic` is checked against.

Two bounds keep a schedule exact and finite, and both are checked before any
phase allocates its columns: the total burst must stay below 2**63 tu (the
columns are int64), and the schedule may hold at most ``_SLICE_LIMIT``
slices. Past either, :func:`run_rounds` raises ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .model import Schedule, TaskSet, check_total_burst

# Most slices one schedule may hold, checked before each phase allocates its
# columns. Fixed RR at quantum 1 reaches it when the bursts add up to about
# 4.2e6 tu; building 4e6 slices peaks near 340 MiB (tracemalloc) and 0.5 s.
_SLICE_LIMIT = 1 << 22

Survivors = tuple[tuple[int, int], ...]  # (task_id, residual tu), queue order
# (one share for every survivor; held for 1 round or None: until done)
ShareForRound = Callable[[int, Survivors], tuple[int, int | None]]


def run_rounds(tasks: TaskSet, share_for_round: ShareForRound) -> Schedule:
    """Dispatch every survivor once per round until all work is done.

    ``share_for_round(number, survivors)`` is called before round ``number``
    (1-based) and returns ``(share, held)``: one int share for every
    survivor, and how many rounds it holds: 1, or ``None`` for every round
    until all tasks have finished. The rounds it covers form one phase. Each
    survivor runs min(share, residual) tu per round; a task finishing
    exactly at its share completes within that slice.

    A phase is built without a per-slice loop. Held for one round, it is
    one slice per survivor, already in round order. Held until done,
    survivor i takes ceil(residual_i / share) slices; they are laid out
    task by task and stably sorted by dispatch index into round order. The
    times come from one cumulative sum over the whole schedule.

    A share below 1 tu, any other ``held``, a total burst of 2**63 tu or
    more, or more than ``_SLICE_LIMIT`` slices raises ``ValueError``; an
    empty task set never gets here, since ``TaskSet`` refuses one.
    """
    ids, bursts = tasks.ids, tasks.bursts()
    total = sum(bursts)
    check_total_burst(total)
    slot = np.arange(tasks.n)
    residual = np.array(bursts, dtype=np.int64)
    slots, lengths, rounds = [], [], []
    number = 1
    count = 0
    while slot.size:
        survivors = tuple(zip([ids[k] for k in slot.tolist()], residual.tolist()))
        share, held = share_for_round(number, survivors)
        if share < 1:
            raise ValueError(f"share must be at least 1 tu, got {share}")
        share = min(share, total)  # no share needs more, and this keeps it in int64
        if held == 1:  # every survivor runs once, so the phase is in round order
            count += slot.size
            _check_slice_count(count)
            length = np.minimum(residual, share)
            slots.append(slot)
            rounds.append(np.full(slot.size, number))
            number += 1
            left = residual > length
            slot, residual = slot[left], (residual - length)[left]
        elif held is None:  # every survivor runs until it finishes
            taken = (residual - 1) // share + 1
            count += int(np.add.reduce(taken))
            _check_slice_count(count)
            who = np.arange(slot.size).repeat(taken)
            dispatch = np.arange(len(who)) - (np.add.accumulate(taken) - taken)[who]
            order = dispatch.argsort(kind="stable")
            who, dispatch = who[order], dispatch[order]
            length = np.minimum(share, residual[who] - dispatch * share)
            slots.append(slot[who])
            rounds.append(number + dispatch)
            slot = slot[:0]  # every survivor has finished
        else:
            raise ValueError(f"shares hold for 1 round or until done (None), got {held}")
        lengths.append(length)

    length = _joined(lengths)
    end = np.add.accumulate(length)
    return Schedule(ids, _joined(slots), end - length, end, _joined(rounds), total)


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """One column from the phases' pieces; a lone piece is used as it is."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


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
    if quantum < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    return run_rounds(tasks, lambda number, survivors: (quantum, None))


def simulate_fcfs(tasks: TaskSet) -> Schedule:
    """First-come first-served: one slice per task, in queue order (a single
    round with a share no task exceeds)."""
    return run_rounds(tasks, lambda number, survivors: (max(tasks.bursts()), 1))
