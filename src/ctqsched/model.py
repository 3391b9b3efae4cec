"""Shared domain types: tasks, schedules, and schedule metrics.

Time is a discrete count of time units (tu). Every task arrives at time 0,
context switches cost nothing, and a schedule is a gapless timeline starting
at 0. Aggregate averages are exact ``Fraction``s so metric comparisons never
depend on float rounding.

A :class:`TaskSet` is two columns (ids and bursts) checked in one pass;
:class:`Task` and :class:`TaskMetrics` are named-tuple rows. A
:class:`Schedule` stores its slices as int64 columns (queue slot, start,
end, round) and nothing else, so :func:`metrics_from_schedule` runs over
whole columns instead of walking one slice at a time. int64 times are exact
while the total burst stays below 2**63 tu; both the schedule builder in
:mod:`ctqsched.simulate` and the metrics reject larger task sets with
``ValueError`` before they allocate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

# Schedules hold their times in int64 columns, exact below this bound. No
# time in a schedule exceeds the total burst, so the schedule builder and the
# metrics check that total before they allocate.
_INT64_LIMIT = 1 << 63


class InvariantViolation(ValueError):
    """A schedule does not describe the task set it claims to."""


def check_total_burst(total: int) -> None:
    """Raise ``ValueError`` when a total burst is past the int64 bound."""
    if total >= _INT64_LIMIT:
        raise ValueError(
            f"total burst {total} tu is too large: schedules hold times below 2**63 tu"
        )


class Task(NamedTuple):
    """One row of a :class:`TaskSet`: ``burst`` tu of CPU time, known before
    scheduling starts. A row checks nothing; its task set does."""

    id: int
    burst: int


class TaskSet:
    """Tasks in FIFO queue order, all arriving at time 0, as two tuples of one
    length, ``ids`` and ``bursts()``; iteration yields :class:`Task` rows.
    Queue order is significant: a task's waiting time depends on who sits
    ahead of it, so every operation in this package preserves it. A set holds
    at least one task, no negative id, no burst below 1 tu and no id twice,
    checked here and nowhere else.
    """

    __slots__ = ("ids", "_bursts")

    def __init__(self, ids: Iterable[int], bursts: Iterable[int]) -> None:
        ids, bursts = tuple(ids), tuple(bursts)
        # One pass of C builtins; only columns that fail it are walked.
        n = len(ids)
        valid = n == len(bursts) and n and min(ids) >= 0 and min(bursts) >= 1
        if not (valid and len(set(ids)) == n):
            _raise_first_task_fault(ids, bursts)
        self.ids, self._bursts = ids, bursts

    @classmethod
    def from_bursts(cls, bursts: Iterable[int]) -> "TaskSet":
        """Build a queue T1..Tn from burst times; ids follow queue order."""
        bursts = tuple(bursts)
        return cls(range(1, len(bursts) + 1), bursts)

    @property
    def n(self) -> int:
        return len(self.ids)

    def bursts(self) -> tuple[int, ...]:
        return self._bursts

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Task]:
        return map(Task, self.ids, self._bursts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskSet) and (self.ids, self._bursts) == (other.ids, other._bursts)

    def __repr__(self) -> str:
        return f"TaskSet(ids={self.ids}, bursts={self._bursts})"


def _raise_first_task_fault(ids: tuple[int, ...], bursts: tuple[int, ...]) -> NoReturn:
    """Raise the first fault of columns that failed the task-set test: unequal
    lengths, no task, then each row in queue order (a negative id, then a
    burst below 1 tu), then the first id that repeats."""
    if len(ids) != len(bursts):
        raise ValueError(f"task set columns differ in length: {len(ids)} ids, {len(bursts)} bursts")
    if not ids:
        raise ValueError("a task set needs at least one task")
    for task_id, burst in zip(ids, bursts):
        if task_id < 0:
            raise ValueError(f"task id must be non-negative, got {task_id}")
        if burst < 1:
            raise ValueError(f"task {task_id}: burst must be at least 1 tu, got {burst}")
    seen: set[int] = set()
    repeat = next(task_id for task_id in ids if task_id in seen or seen.add(task_id))
    raise ValueError(f"duplicate task id {repeat}")


class Schedule:
    """The full Gantt chart: back-to-back slices from time 0 to the makespan,
    stored as int64 columns with one row per slice, in dispatch order.

    Row ``i`` runs task ``ids[slot[i]]`` from ``start[i]`` to ``end[i]`` in
    round ``round[i]``. Task ids stay Python ints in ``ids``, so they may be
    any size; the times are exact while they stay below 2**63 tu, which the
    schedule builder checks through the total burst before it allocates
    anything.
    Every survivor runs once per round, so a row's round number also counts
    how many times its task has been dispatched, this row included.

    Iterating yields the rows as plain ``(task_id, start, end, round)``
    tuples. Two schedules are equal when their ids, columns and makespans
    are.
    """

    __slots__ = ("ids", "slot", "start", "end", "round", "makespan")

    def __init__(
        self,
        ids: Iterable[int],
        slot: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        round: np.ndarray,
        makespan: int,
    ) -> None:
        self.ids = tuple(ids)
        self.slot = slot
        self.start = start
        self.end = end
        self.round = round
        self.makespan = makespan

    @property
    def slices(self) -> "Schedule":
        """The schedule itself. It is kept only because the benchmark's
        tracer (``bench/tracer.py``) counts rows as ``len(schedule.slices)``;
        ``len`` reads the columns and builds no row."""
        return self

    def __len__(self) -> int:
        return len(self.slot)

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        ids = self.ids
        task_ids = [ids[k] for k in self.slot.tolist()]
        return zip(task_ids, self.start.tolist(), self.end.tolist(), self.round.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.makespan == other.makespan
            and np.array_equal(self.slot, other.slot)
            and np.array_equal(self.start, other.start)
            and np.array_equal(self.end, other.end)
            and np.array_equal(self.round, other.round)
        )

    def __repr__(self) -> str:
        return f"Schedule({len(self)} slices, makespan={self.makespan})"


class TaskMetrics(NamedTuple):
    task_id: int
    completion: int
    turnaround: int
    waiting: int
    context_switches: int
    slice_count: int


@dataclass(frozen=True)
class MetricsReport:
    """Per-task and aggregate metrics for one schedule.

    ``avg_waiting`` and ``avg_turnaround`` are exact rationals; render them
    with :func:`format_fraction` at output boundaries.
    """

    per_task: tuple[TaskMetrics, ...]
    total_waiting: int
    avg_waiting: Fraction
    avg_turnaround: Fraction
    total_context_switches: int
    makespan: int


def metrics_from_schedule(schedule: Schedule, tasks: TaskSet) -> MetricsReport:
    """Compute waiting, turnaround, and context-switch counts from a schedule.

    A context switch is charged to a task for each of its slices that ends
    with work still remaining and is immediately followed by a different
    task's slice. Finishing a slice exactly at the quantum boundary therefore
    costs nothing, and back-to-back slices of the same task cost nothing.

    Raises :class:`InvariantViolation` if the schedule does not actually
    execute ``tasks``: columns of different lengths, slots outside
    ``schedule.ids``, unknown ids, gaps in the timeline, slices of zero or
    negative length, per-task totals that do not add up to the bursts, or a
    makespan other than the timeline's end.
    Raises ``ValueError`` when the total burst is 2**63 tu or more, which no
    schedule can hold.

    The work runs over the schedule's int64 columns: one vectorized validity
    test (per-task sums with ``np.add.at``), completions as each task's latest
    slice end, and switches from a shifted compare of neighbouring slices.
    Only a schedule that fails the test is walked, to find its first fault.
    """
    ids, bursts = tasks.ids, tasks.bursts()
    n = len(ids)
    check_total_burst(sum(bursts))
    start, end = schedule.start, schedule.end
    # Queue position of every slice's task, -1 for an id not in ``tasks``.
    # Every column holds one value per slice, and every slot must index
    # ``schedule.ids``; no rows fail the totals below.
    queue = schedule.slot
    valid = len(queue) == len(start) == len(end) == len(schedule.round) and (
        not queue.size or (queue.min() >= 0 and queue.max() < len(schedule.ids))
    )
    if valid and schedule.ids != ids:
        position = {task_id: k for k, task_id in enumerate(ids)}
        queue = np.array([position.get(i, -1) for i in schedule.ids], dtype=np.int64)[queue]
        valid = (queue >= 0).all()
    if valid:
        executed = np.zeros(n, dtype=np.int64)
        np.add.at(executed, queue, end - start)
        # Every burst is at least 1 tu, so matching totals mean a slice exists.
        valid = (
            tuple(executed.tolist()) == bursts
            and start[0] == 0
            and (start[1:] == end[:-1]).all()
            and (end > start).all()
            and schedule.makespan == int(end[-1])
        )
    if not valid:
        _raise_first_violation(schedule, tasks)

    # Every task ends on its last slice, and ends only grow along the timeline.
    completion = np.zeros(n, dtype=np.int64)
    np.maximum.at(completion, queue, end)
    completion = completion.tolist()
    # A slice followed by another task's slice costs a switch unless it is
    # its task's last, and every task but the one finishing at the makespan
    # has such a last slice.
    before = queue[:-1]
    changes = np.bincount(before[queue[1:] != before], minlength=n).tolist()
    switches = [changed - (done < schedule.makespan) for changed, done in zip(changes, completion)]
    waiting = [done - burst for done, burst in zip(completion, bursts)]
    slice_counts = np.bincount(queue, minlength=n).tolist()
    # TaskMetrics(task_id, completion, turnaround, waiting, context_switches, slice_count)
    per_task = tuple(
        map(TaskMetrics, ids, completion, completion, waiting, switches, slice_counts)
    )
    total_turnaround = sum(completion)
    total_waiting = total_turnaround - sum(bursts)
    return MetricsReport(
        per_task=per_task,
        total_waiting=total_waiting,
        avg_waiting=Fraction(total_waiting, n),
        avg_turnaround=Fraction(total_turnaround, n),
        total_context_switches=sum(switches),
        makespan=schedule.makespan,
    )


def _raise_first_violation(schedule: Schedule, tasks: TaskSet) -> NoReturn:
    """Walk a schedule that failed the validity test and raise its first
    fault. The column lengths are checked first. Then each slice, in order,
    is checked for a slot outside ``schedule.ids``, then an unknown id, then
    a gap after the previous slice, then a length that is not positive, then
    an over-run of its task's burst; then every task's total, in queue
    order; then the makespan."""
    columns = {name: len(getattr(schedule, name)) for name in ("slot", "start", "end", "round")}
    if len(set(columns.values())) > 1:
        lengths = ", ".join(f"{name} {length}" for name, length in columns.items())
        raise InvariantViolation(f"schedule columns differ in length: {lengths}")
    bursts = dict(zip(tasks.ids, tasks.bursts()))
    executed = dict.fromkeys(bursts, 0)
    ids = schedule.ids
    clock = 0
    rows = zip(schedule.slot.tolist(), schedule.start.tolist(), schedule.end.tolist())
    for i, (k, start, end) in enumerate(rows):
        if not 0 <= k < len(ids):
            raise InvariantViolation(f"slice {i} has slot {k}, outside 0..{len(ids) - 1}")
        task_id = ids[k]
        if task_id not in bursts:
            raise InvariantViolation(f"slice references unknown task id {task_id}")
        if start != clock:
            raise InvariantViolation(f"timeline gap: slice {i} starts at {start}, expected {clock}")
        if end <= start:
            raise InvariantViolation(f"slice {i} has non-positive length: [{start}, {end})")
        clock = end
        executed[task_id] += end - start
        if executed[task_id] > bursts[task_id]:
            raise InvariantViolation(
                f"task {task_id} executes {executed[task_id]} tu, burst is {bursts[task_id]}"
            )
    for task_id, burst in bursts.items():
        if executed[task_id] != burst:
            raise InvariantViolation(
                f"task {task_id} executes {executed[task_id]} tu, burst is {burst}"
            )
    raise InvariantViolation(f"makespan {schedule.makespan} does not match timeline end {clock}")


def format_fraction(value: Fraction | int) -> str:
    """Render an exact rational: a terminating decimal when one exists
    (``134/5`` -> ``"26.8"``), otherwise ``numerator/denominator``. The
    parts are read off ``value`` (an int is its own numerator, over 1), so
    no new ``Fraction`` is built."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    # The decimal expansion terminates iff the denominator is 2^a * 5^b.
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
