"""Shared domain types: tasks, schedules, and schedule metrics.

Time is a discrete count of time units (tu). Every task arrives at time 0,
context switches cost nothing, and a schedule is a gapless timeline starting
at 0. Aggregate averages are exact ``Fraction``s so metric comparisons never
depend on float rounding.

A :class:`TaskSet` is two columns (ids and bursts) checked in one pass;
:class:`Task`, :class:`TaskMetrics` and :class:`MetricsReport` are named
tuples, as is every record type of the package (read-only, and cheap to
define at import). A
:class:`Schedule` holds its task set and its slices as two int64 columns
(queue slot and end), and nothing else: each slice starts where the one
before it ended, so no schedule can hold a gap; it names its task by queue
slot, so none can name a task outside its set; and its rounds are read off
the slots, so none can hold a round its slots contradict.
:func:`metrics_from_schedule` runs over whole columns instead of walking one
slice at a time. int64 times are exact while the total burst stays below
2**63 tu; both the schedule builder in :mod:`ctqsched.simulate` and the
metrics reject larger task sets with ``ValueError`` before they allocate.
"""

import operator
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

# Schedules hold their times in int64 columns, exact below this bound. No
# time in a schedule exceeds the total burst, so the schedule builder and the
# metrics check that total before they allocate.
_INT64_LIMIT = 1 << 63


class InvariantViolation(ValueError):
    """A schedule does not execute the task set it holds."""


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
    checked here and nowhere else. Both columns hold Python ints: a numpy
    integer is converted, and a float or a str raises ``TypeError``, so a sum
    over a column never wraps around.
    """

    __slots__ = ("ids", "_bursts")

    def __init__(self, ids: Iterable[int], bursts: Iterable[int]) -> None:
        ids, bursts = tuple(map(operator.index, ids)), tuple(map(operator.index, bursts))
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
    """The full Gantt chart of the task set ``tasks``: back-to-back slices
    from time 0 to the makespan, stored as int64 columns with one row per
    slice, in dispatch order.

    Row ``i`` runs the task in queue slot ``slot[i]`` of ``tasks`` until
    ``end[i]``; it starts where row ``i - 1`` ended, or at 0, so ``start``
    and ``makespan`` (the last end, or 0 with no rows) are read off ``end``
    and not stored. The times are exact while they stay below 2**63 tu,
    which the schedule builder checks through the total burst before it
    allocates anything. A row names its task only through ``tasks``, so no
    schedule can name an unknown task; the faults it can still hold are
    those :func:`metrics_from_schedule` reports.

    ``round`` is read off ``slot``: a round begins at row 0 and at every row
    whose slot is not above the slot before it. Every schedule is built in
    rounds that run each survivor once, in queue order, so the slots rise
    within a round and the next round starts at a survivor no later in the
    queue. A row's round is therefore also how many times its task has been
    dispatched, this row included.

    Iterating yields the rows as plain ``(task_id, start, end, round)``
    tuples. Two schedules are equal when their task sets and columns are.
    """

    __slots__ = ("tasks", "slot", "end")

    def __init__(self, tasks: TaskSet, slot: np.ndarray, end: np.ndarray) -> None:
        self.tasks, self.slot, self.end = tasks, slot, end

    @property
    def start(self) -> np.ndarray:
        """Each row's start: 0, then the end of the row before it."""
        start = np.zeros_like(self.end)
        start[1:] = self.end[:-1]
        return start

    @property
    def round(self) -> np.ndarray:
        """Each row's round: 1, plus one per later row whose slot does not rise."""
        rounds = np.ones(len(self.slot), dtype=np.int64)
        rounds[1:] = self.slot[1:] <= self.slot[:-1]
        return np.add.accumulate(rounds, out=rounds)

    @property
    def makespan(self) -> int:
        return int(self.end[-1]) if len(self.end) else 0

    @property
    def slices(self) -> "Schedule":
        """The schedule itself. It is kept only because the benchmark's
        tracer (``bench/tracer.py``) counts rows as ``len(schedule.slices)``;
        ``len`` reads the columns and builds no row."""
        return self

    def __len__(self) -> int:
        return len(self.slot)

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        ids = self.tasks.ids
        task_ids = [ids[k] for k in self.slot.tolist()]
        end = self.end.tolist()
        return zip(task_ids, [0, *end], end, self.round.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.tasks == other.tasks
            and np.array_equal(self.slot, other.slot)
            and np.array_equal(self.end, other.end)
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


class MetricsReport(NamedTuple):
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


def metrics_from_schedule(schedule: Schedule) -> MetricsReport:
    """Compute waiting, turnaround, and context-switch counts from a schedule.

    A context switch is charged to a task for each of its slices that ends
    with work still remaining and is immediately followed by a different
    task's slice. Finishing a slice exactly at the quantum boundary therefore
    costs nothing, and back-to-back slices of the same task cost nothing.

    Raises :class:`InvariantViolation` if the schedule does not actually
    execute ``schedule.tasks``: columns of different lengths, slots outside
    ``0..n-1``, slices of zero or negative length (a slice's length is its
    end less the previous end), or per-task totals that do not add up to the
    bursts (an over-run or an under-run).
    Raises ``ValueError`` when the total burst is 2**63 tu or more, which no
    schedule can hold.

    The work runs over the schedule's int64 columns: one vectorized validity
    test (per-task sums with ``np.add.at``), completions as each task's latest
    slice end, and switches from a shifted compare of neighbouring slices.
    Only a schedule that fails the test is walked, to find its first fault.
    """
    ids, bursts = schedule.tasks.ids, schedule.tasks.bursts()
    n = len(ids)
    check_total_burst(sum(bursts))
    end = schedule.end
    # Every slice's queue slot. Both columns hold one value per slice, and
    # every slot must be in 0..n-1; no rows fail the totals below.
    queue = schedule.slot
    valid = len(queue) == len(end) and (
        not queue.size or (queue.min() >= 0 and queue.max() < n)
    )
    if valid:
        length = end.copy()
        length[1:] -= end[:-1]
        executed = np.zeros(n, dtype=np.int64)
        np.add.at(executed, queue, length)
        # Every burst is at least 1 tu, so matching totals mean a slice exists.
        # The ends are compared, not the lengths: a difference of int64 ends
        # can wrap to a positive length, and wrapped lengths can sum back to
        # a burst. Strictly rising ends below 2**63 wrap neither.
        valid = (
            tuple(executed.tolist()) == bursts
            and end[0] > 0
            and (end[1:] > end[:-1]).all()
        )
    if not valid:
        _raise_first_violation(schedule)
    makespan = int(end[-1])

    # Every task ends on its last slice, and ends only grow along the timeline.
    completion = np.zeros(n, dtype=np.int64)
    np.maximum.at(completion, queue, end)
    completion = completion.tolist()
    # A slice followed by another task's slice costs a switch unless it is
    # its task's last, and every task but the one finishing at the makespan
    # has such a last slice.
    before = queue[:-1]
    changes = np.bincount(before[queue[1:] != before], minlength=n).tolist()
    switches = [changed - (done < makespan) for changed, done in zip(changes, completion)]
    waiting = [done - burst for done, burst in zip(completion, bursts)]
    slice_counts = np.bincount(queue, minlength=n).tolist()
    # TaskMetrics(task_id, completion, turnaround, waiting, context_switches, slice_count),
    # each row made by tuple.__new__ directly, skipping the named tuple's Python __new__.
    rows = zip(ids, completion, completion, waiting, switches, slice_counts)
    per_task = tuple(map(tuple.__new__, repeat(TaskMetrics), rows))
    total_turnaround = sum(completion)
    total_waiting = total_turnaround - sum(bursts)
    return MetricsReport(
        per_task=per_task,
        total_waiting=total_waiting,
        avg_waiting=Fraction(total_waiting, n),
        avg_turnaround=Fraction(total_turnaround, n),
        total_context_switches=sum(switches),
        makespan=makespan,
    )


def _raise_first_violation(schedule: Schedule) -> NoReturn:
    """Walk a schedule that failed the validity test and raise its first
    fault. The column lengths are checked first. Then each slice, in order,
    is checked for a slot outside ``0..n-1``, then a length that is not
    positive, then an over-run of its task's burst; then every task's total,
    in queue order."""
    if (slots := len(schedule.slot)) != (ends := len(schedule.end)):
        raise InvariantViolation(f"schedule columns differ in length: slot {slots}, end {ends}")
    ids, bursts = schedule.tasks.ids, schedule.tasks.bursts()
    n = len(ids)
    executed = [0] * n
    start = 0
    for i, (k, end) in enumerate(zip(schedule.slot.tolist(), schedule.end.tolist())):
        if not 0 <= k < n:
            raise InvariantViolation(f"slice {i} has slot {k}, outside 0..{n - 1}")
        if end <= start:
            raise InvariantViolation(f"slice {i} has non-positive length: [{start}, {end})")
        executed[k] += end - start
        if executed[k] > bursts[k]:
            break  # an over-run
        start = end
    else:  # no over-run: the first under-run in queue order
        k = next(k for k in range(n) if executed[k] != bursts[k])
    raise InvariantViolation(f"task {ids[k]} executes {executed[k]} tu, burst is {bursts[k]}")


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
