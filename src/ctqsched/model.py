"""Shared domain types: tasks, schedules, and schedule metrics.

Time is a discrete count of time units (tu). Every task arrives at time 0,
context switches cost nothing, and a schedule is a gapless timeline starting
at 0. Aggregate averages are exact ``Fraction``s so metric comparisons never
depend on float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator


class InvariantViolation(ValueError):
    """A schedule does not describe the task set it claims to."""


@dataclass(frozen=True)
class Task:
    """A unit of work: ``burst`` tu of CPU time, known before scheduling starts.

    ``weight`` only matters to weighted round robin; everything else ignores
    it. ``label`` is a display name and does not participate in equality.
    """

    id: int
    burst: int
    label: str | None = field(default=None, compare=False)
    weight: int = 1

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"task id must be non-negative, got {self.id}")
        if self.burst < 1:
            raise ValueError(f"task {self.id}: burst must be at least 1 tu, got {self.burst}")
        if self.weight < 1:
            raise ValueError(f"task {self.id}: weight must be at least 1, got {self.weight}")

    @property
    def name(self) -> str:
        return self.label if self.label is not None else f"T{self.id}"


@dataclass(frozen=True)
class TaskSet:
    """Tasks in FIFO queue order, all arriving at time 0.

    Queue order is significant: a task's waiting time depends on who sits
    ahead of it, so every operation in this package preserves the order.
    """

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen: set[int] = set()
        for task in self.tasks:
            if task.id in seen:
                raise ValueError(f"duplicate task id {task.id}")
            seen.add(task.id)

    @classmethod
    def from_bursts(
        cls, bursts: Iterable[int], weights: Iterable[int] | None = None
    ) -> "TaskSet":
        """Build a queue T1..Tn from burst times; ids follow queue order."""
        bursts = list(bursts)
        if weights is None:
            weights = [1] * len(bursts)
        return cls(
            tuple(
                Task(id=i + 1, burst=burst, weight=weight)
                for i, (burst, weight) in enumerate(zip(bursts, list(weights), strict=True))
            )
        )

    @property
    def n(self) -> int:
        return len(self.tasks)

    def bursts(self) -> tuple[int, ...]:
        return tuple(task.burst for task in self.tasks)

    def total_burst(self) -> int:
        return sum(task.burst for task in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]


@dataclass(frozen=True)
class Slice:
    """One contiguous run of a task on the CPU. ``round`` is the number of the
    round the run belongs to; every survivor runs once per round, so it also
    counts how many times the task has been dispatched, this run included."""

    task_id: int
    start: int
    end: int
    round: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"slice start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"slice must have positive length, got [{self.start}, {self.end})")
        if self.round < 1:
            raise ValueError(f"round number must be at least 1, got {self.round}")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Schedule:
    """The full Gantt chart: back-to-back slices from time 0 to the makespan."""

    slices: tuple[Slice, ...]
    makespan: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "slices", tuple(self.slices))

    @classmethod
    def from_slices(cls, slices: Iterable[Slice]) -> "Schedule":
        slices = tuple(slices)
        return cls(slices, slices[-1].end if slices else 0)

    def task_slices(self, task_id: int) -> tuple[Slice, ...]:
        return tuple(s for s in self.slices if s.task_id == task_id)


@dataclass(frozen=True)
class TaskMetrics:
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
    execute ``tasks``: unknown ids, gaps in the timeline, or per-task totals
    that do not add up to the bursts.
    """
    if tasks.n == 0:
        raise InvariantViolation("empty task set")
    bursts = {task.id: task.burst for task in tasks}

    clock = 0
    executed: dict[int, int] = {task.id: 0 for task in tasks}
    completion: dict[int, int] = {}
    switches: dict[int, int] = {task.id: 0 for task in tasks}
    slice_counts: dict[int, int] = {task.id: 0 for task in tasks}

    for i, s in enumerate(schedule.slices):
        if s.task_id not in bursts:
            raise InvariantViolation(f"slice references unknown task id {s.task_id}")
        if s.start != clock:
            raise InvariantViolation(
                f"timeline gap: slice {i} starts at {s.start}, expected {clock}"
            )
        clock = s.end
        executed[s.task_id] += s.length
        slice_counts[s.task_id] += 1
        if executed[s.task_id] > bursts[s.task_id]:
            raise InvariantViolation(
                f"task {s.task_id} executes {executed[s.task_id]} tu, burst is {bursts[s.task_id]}"
            )
        if executed[s.task_id] == bursts[s.task_id]:
            completion[s.task_id] = s.end
        elif i + 1 < len(schedule.slices) and schedule.slices[i + 1].task_id != s.task_id:
            switches[s.task_id] += 1

    for task in tasks:
        if executed[task.id] != task.burst:
            raise InvariantViolation(
                f"task {task.id} executes {executed[task.id]} tu, burst is {task.burst}"
            )
    if schedule.makespan != clock:
        raise InvariantViolation(
            f"makespan {schedule.makespan} does not match timeline end {clock}"
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
        makespan=schedule.makespan,
    )


def format_fraction(value: Fraction | int) -> str:
    """Render an exact rational: a terminating decimal when one exists
    (``134/5`` -> ``"26.8"``), otherwise ``numerator/denominator``."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    # The decimal expansion terminates iff the denominator is 2^a * 5^b.
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = abs(f.numerator) * 10**digits // f.denominator
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if f.numerator < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
