"""The round loop and the executors built on it: fixed round robin, FCFS, and
weighted round robin.

Every task arrives at time 0, so each of these policies, and CTQ in
:mod:`ctqsched.ctq`, runs every survivor once per round, in queue order, for
min(share, residual) tu. They differ only in how the share is picked, which
:func:`run_rounds` takes as a callable. The executors emit the full timeline;
they are the baseline arms of every experiment and the ground truth the
closed-form math in :mod:`ctqsched.analytic` is checked against.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator

from .model import Schedule, Slice, TaskSet

Survivors = tuple[tuple[int, int], ...]  # (task_id, residual tu), queue order
ShareForRound = Callable[[int, Survivors], Iterable[int]]


def run_rounds(
    tasks: TaskSet, share_for_round: ShareForRound
) -> Iterator[tuple[int, Survivors, tuple[Slice, ...]]]:
    """Dispatch every survivor once per round until all work is done.

    ``share_for_round(number, survivors)`` is called before round ``number``
    (1-based) and returns one share per survivor, in survivor order. Each
    survivor then runs min(share, residual) tu; a task finishing exactly at
    its share completes within that slice. Yields each round's number, the
    survivors entering it, and its slices. An empty task set raises
    ``ValueError``, and so does a share below 1 tu (through :class:`Slice`).
    """
    if tasks.n == 0:
        raise ValueError("cannot schedule an empty task set")
    survivors: Survivors = tuple((task.id, task.burst) for task in tasks)
    clock = 0
    number = 1
    while survivors:
        slices = []
        after = []
        for (task_id, residual), share in zip(survivors, share_for_round(number, survivors)):
            run = min(share, residual)
            slices.append(Slice(task_id, clock, clock + run, number))
            clock += run
            if residual > run:
                after.append((task_id, residual - run))
        yield number, survivors, tuple(slices)
        survivors = tuple(after)
        number += 1


def _schedule(tasks: TaskSet, share_for_round: ShareForRound) -> Schedule:
    return Schedule.from_slices(
        s for _, _, slices in run_rounds(tasks, share_for_round) for s in slices
    )


def simulate_fixed_rr(tasks: TaskSet, quantum: int) -> Schedule:
    """Fixed-quantum round robin over a cyclic FIFO queue.

    Each dispatch runs min(quantum, remaining) tu; a task finishing exactly at
    the quantum boundary completes within that slice, and finished tasks leave
    the queue.
    """
    if quantum < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    return _schedule(tasks, lambda number, survivors: repeat(quantum))


def simulate_fcfs(tasks: TaskSet) -> Schedule:
    """First-come first-served: one slice per task, in queue order."""
    return _schedule(tasks, lambda number, survivors: [burst for _, burst in survivors])


def simulate_wrr(tasks: TaskSet, quantum: int, reference_weight: int = 10) -> Schedule:
    """Weighted round robin: task k's dispatch length scales with its weight.

    A task with the reference weight receives the full quantum; others get
    floor(quantum * weight / reference_weight), clamped to at least 1 tu so
    every dispatch makes progress.
    """
    if quantum < 1:
        raise ValueError(f"quantum must be at least 1 tu, got {quantum}")
    if reference_weight < 1:
        raise ValueError(f"reference weight must be at least 1, got {reference_weight}")
    shares = {
        task.id: max(1, quantum * task.weight // reference_weight) for task in tasks
    }
    return _schedule(
        tasks, lambda number, survivors: [shares[task_id] for task_id, _ in survivors]
    )
