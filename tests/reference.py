"""Reference implementations of the scan kernel, dispatch, metric extraction
and the task file parser.

These are what the package ran before its current kernels: the n x n cell
kernel of the candidate scan, a round loop that builds one ``Slice`` per
dispatch, a metric loop that walks the slices one at a time and a parser that
checks every line as it reads it. They are slow and obviously correct, so the
code in ``ctqsched.analytic``, ``ctqsched.simulate``, ``ctqsched.ctq``,
``ctqsched.model`` and ``ctqsched.workload`` must equal them total for total,
slice for slice, report for report and error message for error message. The optimal
search over quantum sequences is a bound, not an equal: no schedule that
CTQ or fixed RR makes can wait less.

``pair_split_totals`` is not a reference: it runs the package's exact pass
at every quantum it is given, so that tests can pin that pass to the cell
kernel.

The package keeps a schedule as int64 columns only; ``Slice`` and the
helpers after it give the tests its rows as named records.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ctqsched import (
    InvariantViolation,
    MetricsReport,
    RoundRecord,
    Schedule,
    TaskMetrics,
    TaskFileError,
    TaskSet,
    best_quantum,
)
from ctqsched.analytic import _corrections, _lower_bounds, _split_pairs


class Slice(NamedTuple):
    """One contiguous run of a task on the CPU, in round ``round``. Nothing
    is validated, so a test can build a fault (a zero or negative length)
    that only the metrics may catch."""

    task_id: int
    start: int
    end: int
    round: int

    @property
    def length(self) -> int:
        return self.end - self.start


def schedule_from_slices(rows) -> Schedule:
    """The columnar schedule of ``rows`` (anything with ``task_id``,
    ``start``, ``end`` and ``round``), its makespan the last row's end.
    Slots number the task ids in order of first appearance."""
    rows = tuple(rows)
    index: dict[int, int] = {}
    quads = [(index.setdefault(s.task_id, len(index)), s.start, s.end, s.round) for s in rows]
    slot, start, end, rounds = np.array(quads, dtype=np.int64).reshape(-1, 4).T
    return Schedule(index, slot, start, end, rounds, rows[-1].end if rows else 0)


def slices(schedule: Schedule) -> tuple[Slice, ...]:
    """Every row of ``schedule`` as a ``Slice``, in dispatch order."""
    return tuple(map(Slice._make, schedule))


def task_slices(schedule: Schedule, task_id: int) -> tuple[Slice, ...]:
    """The rows of one task, in dispatch order, read off the columns where
    ``schedule.slot`` is the task's slot; no other row is touched."""
    if task_id not in schedule.ids:
        return ()
    rows = schedule.slot == schedule.ids.index(task_id)
    return tuple(
        map(
            Slice,
            repeat(task_id),
            schedule.start[rows].tolist(),
            schedule.end[rows].tolist(),
            schedule.round[rows].tolist(),
        )
    )


def reference_load_tasks(source: str) -> TaskSet:
    """The line-by-line parser: every line is checked as it is read, in the
    order field count, integers, a repeated id, a negative id, a burst below
    1 tu; a file without tasks is rejected as a whole."""
    ids: list[int] = []
    seen: set[int] = set()
    bursts: list[int] = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise TaskFileError(line_number, f"expected 'id,burst', got {raw.strip()!r}")
        try:
            task_id, burst = [int(f) for f in fields]
        except ValueError:
            raise TaskFileError(line_number, f"non-integer field in {raw.strip()!r}") from None
        if task_id in seen:
            raise TaskFileError(line_number, f"duplicate task id {task_id}")
        if task_id < 0:
            raise TaskFileError(line_number, f"task id must be non-negative, got {task_id}")
        if burst < 1:
            raise TaskFileError(
                line_number, f"task {task_id}: burst must be at least 1 tu, got {burst}"
            )
        seen.add(task_id)
        ids.append(task_id)
        bursts.append(burst)
    if not ids:
        raise TaskFileError(None, "no tasks found")
    return TaskSet(ids, bursts)


def reference_total_waiting(bursts, quanta):
    """Total waiting time for each quantum in ``quanta``, one n x n cell
    block per quantum: the time task k runs before task i's final slice
    starts is min(burst_k, cycles * quantum), with one more cycle for k ahead
    of i in the queue. Summing that over k, less i's own full_quanta *
    quantum (the k == i term), gives i's waiting time."""
    b = np.asarray(bursts, dtype=np.int64)
    tq = np.asarray(quanta, dtype=np.int64)
    earlier = np.tril(np.ones((b.size, b.size), dtype=np.int64), k=-1)  # [i, k]: k < i
    nq = (b[None, :] - 1) // tq[:, None]
    cap = (nq[:, :, None] + earlier[None, :, :]) * tq[:, None, None]
    ran_ahead = np.minimum(b[None, None, :], cap).sum(axis=2)
    return (ran_ahead - nq * tq[:, None]).sum(axis=1)


def pair_split_totals(bursts, quanta):
    """Total waiting time T = L + correction for each quantum in ``quanta``
    (ascending), through the package's pair split: the exact pass of the
    scan, run at every quantum it is given."""
    pairs = _split_pairs(bursts)
    totals = _lower_bounds(pairs, quanta)
    totals += _corrections(pairs, quanta)
    return totals


def reference_rounds(tasks, share_for_round):
    """Run every survivor once per round, in queue order, for
    min(share, residual); ``share_for_round(number, survivors)`` returns one
    share per survivor. Yields each round's number, the survivors entering
    it as ``(task_id, residual)`` pairs, and its slices."""
    if tasks.n == 0:
        raise ValueError("cannot schedule an empty task set")
    survivors = tuple((task.id, task.burst) for task in tasks)
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


def _slices(tasks, share_for_round):
    return tuple(s for _, _, slices in reference_rounds(tasks, share_for_round) for s in slices)


def reference_fixed_rr(tasks, quantum):
    return _slices(tasks, lambda number, survivors: repeat(quantum))


def reference_fcfs(tasks):
    return _slices(tasks, lambda number, survivors: [burst for _, burst in survivors])


def reference_ctq(tasks, first_quantum=None):
    """CTQ's round records and slices, rescanning before every round."""
    choices = []

    def share_for_round(number, survivors):
        if number == 1 and first_quantum is not None:
            choices.append((first_quantum, "user_supplied"))
        else:
            residuals = TaskSet.from_bursts(residual for _, residual in survivors)
            choices.append((best_quantum(residuals).quantum, "optimized"))
        return repeat(choices[-1][0])

    records, slices = [], []
    for number, before, round_slices in reference_rounds(tasks, share_for_round):
        quantum, chosen_by = choices[-1]
        completed = tuple(
            s.task_id for s, (_, residual) in zip(round_slices, before) if s.length == residual
        )
        records.append(RoundRecord(number, quantum, before, completed, chosen_by))
        slices.extend(round_slices)
    return tuple(records), tuple(slices)


def optimal_total_waiting(bursts):
    """The least total waiting time of any sequence of per-round quanta, by
    exhaustive search. A round runs every survivor once, in queue order, for
    min(quantum, residual); any quantum of at least the largest residual is
    FCFS, so quanta range over [1, largest residual]. Total waiting is the
    sum of completion times less the total burst, and a round adds to that
    sum the time each task finishing in it has run within it, plus the
    round's length once per survivor after it."""

    @cache
    def completions(residuals):
        if not residuals:
            return 0
        best = None
        for quantum in range(1, max(residuals) + 1):
            clock, finishing, after = 0, 0, []
            for residual in residuals:
                clock += min(quantum, residual)
                if residual > quantum:
                    after.append(residual - quantum)
                else:
                    finishing += clock
            total = finishing + clock * len(after) + completions(tuple(after))
            best = total if best is None else min(best, total)
        return best

    return completions(tuple(bursts)) - sum(bursts)


def reference_metrics(slices, makespan, tasks):
    """Walk the slices in order; raise on the first slice that breaks the
    timeline, has no positive length or over-runs a task's burst, then on
    per-task totals, then on the makespan. A slice is anything with
    ``task_id``, ``start`` and ``end``."""
    if tasks.n == 0:
        raise InvariantViolation("empty task set")
    bursts = {task.id: task.burst for task in tasks}

    clock = 0
    executed = {task.id: 0 for task in tasks}
    completion = {}
    switches = {task.id: 0 for task in tasks}
    slice_counts = {task.id: 0 for task in tasks}

    for i, s in enumerate(slices):
        if s.task_id not in bursts:
            raise InvariantViolation(f"slice references unknown task id {s.task_id}")
        if s.start != clock:
            raise InvariantViolation(
                f"timeline gap: slice {i} starts at {s.start}, expected {clock}"
            )
        if s.end <= s.start:
            raise InvariantViolation(f"slice {i} has non-positive length: [{s.start}, {s.end})")
        clock = s.end
        executed[s.task_id] += s.end - s.start
        slice_counts[s.task_id] += 1
        if executed[s.task_id] > bursts[s.task_id]:
            raise InvariantViolation(
                f"task {s.task_id} executes {executed[s.task_id]} tu, burst is {bursts[s.task_id]}"
            )
        if executed[s.task_id] == bursts[s.task_id]:
            completion[s.task_id] = s.end
        elif i + 1 < len(slices) and slices[i + 1].task_id != s.task_id:
            switches[s.task_id] += 1

    for task in tasks:
        if executed[task.id] != task.burst:
            raise InvariantViolation(
                f"task {task.id} executes {executed[task.id]} tu, burst is {task.burst}"
            )
    if makespan != clock:
        raise InvariantViolation(f"makespan {makespan} does not match timeline end {clock}")

    per_task = tuple(
        TaskMetrics(
            task_id=task.id,
            completion=completion[task.id],
            turnaround=completion[task.id],
            waiting=completion[task.id] - task.burst,
            context_switches=switches[task.id],
            slice_count=slice_counts[task.id],
        )
        for task in tasks
    )
    total_waiting = sum(m.waiting for m in per_task)
    return MetricsReport(
        per_task=per_task,
        total_waiting=total_waiting,
        avg_waiting=Fraction(total_waiting, tasks.n),
        avg_turnaround=Fraction(sum(m.turnaround for m in per_task), tasks.n),
        total_context_switches=sum(m.context_switches for m in per_task),
        makespan=makespan,
    )
