"""Reference implementations of the scan kernel, dispatch, metric extraction
and the task file parser.

These are what the package ran before its current kernels: the n x n cell
kernel of the candidate scan and its candidate quanta in plain integers, a
round loop that builds one ``Slice`` per dispatch, a metric loop that walks
the slices one at a time and a parser that checks every line as it reads it.
They are slow and obviously correct, so the code in ``ctqsched.analytic``,
``ctqsched.simulate``, ``ctqsched.ctq``, ``ctqsched.model`` and
``ctqsched.workload`` must equal them total for total, slice for slice,
report for report and error message for error message. The optimal search
over quantum sequences is a bound, not an equal: no schedule that CTQ or
fixed RR makes can wait less.

``reference_generate`` draws ``generate``'s bursts from PCG64's raw words,
so the task sets rest on numpy's stable bit stream, not on the algorithm of
``Generator.integers``.

``reference_sequence_waits`` states the waiting rule of
``ctqsched.analytic`` for any sequence of per-round quanta, in plain
integers: the rule that fixed RR (one quantum), FCFS (the largest burst)
and CTQ (the quanta its rounds chose) all follow.

``pair_split_totals`` is not a reference: it runs the package's exact pass
at every quantum it is given, so that tests can pin that pass to the cell
kernel.

``reference_compare_workload`` is the comparison harness before it shared
a one-round CTQ run with its RR and FCFS arms: it builds all three arms
every time, from the reference dispatch and metrics above.

The package keeps a schedule as int64 columns only; ``Slice`` and the
helpers after it give the tests its rows as named records. CTQ's round
records keep only each round's quantum and how it was chosen, so
``schedule_rounds`` reads the rest of a round off the schedule: the tasks
entering it, with their residual work, and those finishing in it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import isqrt
from typing import NamedTuple

import numpy as np

from ctqsched import (
    ExperimentRow,
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


def schedule_from_slices(rows, tasks: TaskSet) -> Schedule:
    """The columnar schedule of ``tasks`` that ``rows`` (anything with
    ``task_id``, ``start`` and ``end``) describe. A schedule stores only the
    ends, so the rows must be gapless from 0, each starting where the one
    before it ended; the assertion keeps a test from building a timeline
    other than the one it wrote. Each row's slot is its task's queue
    position in ``tasks``. A row's ``round`` is not read: the schedule reads
    its rounds off the slots."""
    rows = tuple(rows)
    ends = [s.end for s in rows]
    assert [s.start for s in rows] == [0, *ends][: len(rows)], "rows are not gapless from 0"
    position = {task_id: k for k, task_id in enumerate(tasks.ids)}
    pairs = [(position[s.task_id], s.end) for s in rows]
    slot, end = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Schedule(tasks, slot, end)


def slices(schedule: Schedule) -> tuple[Slice, ...]:
    """Every row of ``schedule`` as a ``Slice``, in dispatch order."""
    return tuple(map(Slice._make, schedule))


def task_slices(schedule: Schedule, task_id: int) -> tuple[Slice, ...]:
    """The rows of one task, in dispatch order, read off the columns where
    ``schedule.slot`` is the task's slot; no other row is touched."""
    ids = schedule.tasks.ids
    if task_id not in ids:
        return ()
    rows = schedule.slot == ids.index(task_id)
    return tuple(
        map(
            Slice,
            repeat(task_id),
            schedule.start[rows].tolist(),
            schedule.end[rows].tolist(),
            schedule.round[rows].tolist(),
        )
    )


class Round(NamedTuple):
    """One round of a schedule: the survivors entering it as (task_id,
    residual) pairs and the ids of those finishing in it, both in queue
    order, and its slices."""

    number: int
    survivors: tuple[tuple[int, int], ...]
    completed: tuple[int, ...]
    slices: tuple[Slice, ...]


def schedule_rounds(tasks: TaskSet, schedule: Schedule) -> list[Round]:
    """Every round of ``schedule``, a schedule of ``tasks``: a round's rows
    are the tasks entering it, each with its burst less the work of its
    earlier rows, and a row that runs all of that work finishes its task."""
    rows = slices(schedule)
    left = dict(zip(tasks.ids, tasks.bursts()))
    rounds = []
    for number in range(1, rows[-1].round + 1):
        own = tuple(s for s in rows if s.round == number)
        survivors = tuple((s.task_id, left[s.task_id]) for s in own)
        completed = tuple(s.task_id for s in own if s.length == left[s.task_id])
        rounds.append(Round(number, survivors, completed, own))
        for s in own:
            left[s.task_id] -= s.length
    return rounds


def reference_load_tasks(source: str) -> TaskSet:
    """The line-by-line parser: lines end at LF only, and every line is
    checked as it is read, in the order field count, integers (a field past
    ``int``'s digit limit is too large, any other a non-integer), a repeated
    id, a negative id, a burst below 1 tu; a file without tasks is rejected
    as a whole."""
    ids: list[int] = []
    seen: set[int] = set()
    bursts: list[int] = []
    for line_number, raw in enumerate(source.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise TaskFileError(line_number, f"expected 'id,burst', got {raw.strip()!r}")
        task_id, burst = [reference_int_field(line_number, raw, f) for f in fields]
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


def reference_int_field(line_number: int, raw: str, field: str) -> int:
    """``int(field)``; a field it refuses is too large when it is a sign and
    digits (past ``int``'s digit limit), and otherwise a non-integer."""
    try:
        return int(field)
    except ValueError:
        digits = re.fullmatch(r"[+-]?(\d+)", field)
        if digits is None:
            raise TaskFileError(line_number, f"non-integer field in {raw.strip()!r}") from None
        raise TaskFileError(
            line_number, f"integer field of {len(digits[1])} digits is too large"
        ) from None


def reference_generate(n, burst_min, burst_max, seed):
    """The bursts of ``generate(n, burst_min, burst_max, seed)`` from PCG64's
    raw 64-bit words alone, by Lemire's multiply-and-reject. For a span s =
    burst_max - burst_min + 1 of at most 2**32, each word gives two 32-bit
    draws, low half first; a larger span takes a whole word per draw. A draw
    x of k bits is kept when x * s mod 2**k is at least 2**k mod s, and
    gives burst_min + (x * s >> k)."""
    words = np.random.PCG64(seed)
    span = burst_max - burst_min + 1
    bits = 32 if span <= 1 << 32 else 64

    def draws():
        while True:
            word = int(words.random_raw())
            if bits == 64:
                yield word
            else:
                yield word & 0xFFFFFFFF
                yield word >> 32

    stream, bursts = draws(), []
    while len(bursts) < n:
        product = next(stream) * span
        if product % (1 << bits) >= (1 << bits) % span:
            bursts.append(burst_min + (product >> bits))
    return tuple(bursts)


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


def reference_sequence_waits(bursts, quanta):
    """Each task's waiting time when round r offers every survivor
    ``quanta[r - 1]`` tu and the last quantum holds past the list. With W_r
    the work offered through round r (W_0 = 0), task i finishes in round
    r_i, the first with W_r >= b_i. Before its final slice, each task k
    ahead of it has run min(b_k, W_{r_i}) and each task behind it
    min(b_k, W_{r_i - 1}); their sum is i's wait."""
    offered = [0]
    while offered[-1] < max(bursts):
        offered.append(offered[-1] + quanta[min(len(offered), len(quanta)) - 1])
    waits = []
    for i, burst in enumerate(bursts):
        r = next(r for r, work in enumerate(offered) if work >= burst)
        ahead = sum(min(b, offered[r]) for b in bursts[:i])
        waits.append(ahead + sum(min(b, offered[r - 1]) for b in bursts[i + 1 :]))
    return waits


def reference_candidate_quanta(bursts):
    """The candidate quanta of a scan of ``bursts``, in plain integers: every
    tq in 1..isqrt(largest m) + 1, and m // v + 1 for each m = b - 1 and v in
    1..isqrt(m), the left ends of the intervals on which each m // tq is
    constant. Sorted and distinct."""
    tops = {burst - 1 for burst in bursts}
    quanta = set(range(1, isqrt(max(tops)) + 2))
    for m in tops:
        quanta.update(m // v + 1 for v in range(1, isqrt(m) + 1))
    return sorted(quanta)


def pair_split_totals(bursts, quanta):
    """Total waiting time T = L + correction for each quantum in ``quanta``
    (ascending), through the package's pair split: the exact pass of the
    scan, run at every quantum it is given."""
    pairs = _split_pairs(bursts)
    totals = _lower_bounds(pairs, quanta)
    totals += _corrections(pairs, quanta)
    return totals


def sjf_total_waiting(bursts):
    """Total waiting time of non-preemptive shortest-job-first when every task
    arrives at 0: in each queue pair the shorter task runs first and adds its
    burst to the longer one's wait, so the total is the sum over pairs of
    min(b_k, b_i)."""
    return sum(min(b, c) for k, b in enumerate(bursts) for c in bursts[k + 1 :])


def reference_rounds(tasks, quantum_for_round):
    """Run every survivor once per round, in queue order, for
    min(quantum, residual); ``quantum_for_round(number, survivors)`` gives
    the round's quantum. Yields each round's number, the survivors entering
    it as ``(task_id, residual)`` pairs, and its slices."""
    survivors = tuple((task.id, task.burst) for task in tasks)
    clock = 0
    number = 1
    while survivors:
        quantum = quantum_for_round(number, survivors)
        slices = []
        for task_id, residual in survivors:
            run = min(quantum, residual)
            slices.append(Slice(task_id, clock, clock + run, number))
            clock += run
        yield number, survivors, tuple(slices)
        survivors = tuple((i, r - quantum) for i, r in survivors if r > quantum)
        number += 1


def _slices(tasks, quantum_for_round):
    return tuple(s for _, _, slices in reference_rounds(tasks, quantum_for_round) for s in slices)


def reference_fixed_rr(tasks, quantum):
    return _slices(tasks, lambda number, survivors: quantum)


def reference_fcfs(tasks):
    return _slices(tasks, lambda number, survivors: max(tasks.bursts()))


def reference_ctq(tasks, first_quantum=None):
    """CTQ's round records and rounds, rescanning before every round. Each
    ``Round`` comes from the reference loop: its survivors as that loop
    carried them, and its completions where a slice ran a task's residual."""
    choices = []

    def quantum_for_round(number, survivors):
        if number == 1 and first_quantum is not None:
            choices.append((first_quantum, "user_supplied"))
        else:
            residuals = TaskSet.from_bursts(residual for _, residual in survivors)
            choices.append((best_quantum(residuals).quantum, "optimized"))
        return choices[-1][0]

    records, rounds = [], []
    for number, before, round_slices in reference_rounds(tasks, quantum_for_round):
        records.append(RoundRecord(number, *choices[-1]))
        completed = tuple(
            s.task_id for s, (_, residual) in zip(round_slices, before) if s.length == residual
        )
        rounds.append(Round(number, before, completed, round_slices))
    return tuple(records), rounds


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


def reference_metrics(slices, tasks):
    """Walk the slices in order; raise on the first slice that has no
    positive length or over-runs a task's burst, then on per-task totals.
    A slice is anything with ``task_id``, ``start`` and ``end``; the
    makespan is the last slice's end."""
    bursts = {task.id: task.burst for task in tasks}

    executed = {task.id: 0 for task in tasks}
    completion = {}
    switches = {task.id: 0 for task in tasks}
    slice_counts = {task.id: 0 for task in tasks}

    for i, s in enumerate(slices):
        if s.end <= s.start:
            raise InvariantViolation(f"slice {i} has non-positive length: [{s.start}, {s.end})")
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
        makespan=slices[-1].end,
    )


def reference_compare_workload(tasks, workload_id="0"):
    """The rr, ctq and fcfs rows of one task set, each arm dispatched and
    measured on its own: RR at CTQ's first quantum, CTQ, then FCFS."""
    records, rounds = reference_ctq(tasks)
    quanta = tuple(r.quantum for r in records)

    def row(algorithm, tq_policy, slices, rounds=None, tq_sequence=None):
        metrics = reference_metrics(slices, tasks)
        return ExperimentRow(
            workload_id, tasks.n, algorithm, tq_policy, metrics.avg_waiting,
            metrics.avg_turnaround, Fraction(metrics.total_context_switches),
            Fraction(metrics.makespan), rounds, tq_sequence,
        )

    ctq_slices = tuple(s for r in rounds for s in r.slices)
    return (
        row("rr", str(quanta[0]), reference_fixed_rr(tasks, quanta[0])),
        row("ctq", "optimized", ctq_slices, len(records), quanta),
        row("fcfs", "none", reference_fcfs(tasks)),
    )
