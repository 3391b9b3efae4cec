"""Seeded task-set generation and the on-disk task file format.

Generation is pinned to numpy's PCG64 bit generator (seeded through
``SeedSequence``) with ``Generator.integers`` for the bounded draw, so the
same spec reproduces the same task set on any platform.

Task files are plain text, one task per line::

    # comment
    id,burst[,weight]

UTF-8, LF or CRLF accepted (the command line also drops a leading byte-order
mark); saves emit LF and omit the weight when it is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Task, TaskSet
from .simulate import _SLICE_LIMIT


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters for one random task set; ``seed`` fully determines it.

    ``n`` may not exceed ``_SLICE_LIMIT`` (2**22): every task takes at least
    one slice, so no larger set can be scheduled, and refusing it here keeps
    :func:`generate` from drawing it first.
    """

    n: int
    burst_min: int
    burst_max: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"task count must be at least 1, got {self.n}")
        if self.n > _SLICE_LIMIT:
            raise ValueError(
                f"task count must be at most {_SLICE_LIMIT}, got {self.n}: "
                "a schedule holds at most that many slices"
            )
        if self.burst_min < 1:
            raise ValueError(f"burst_min must be at least 1 tu, got {self.burst_min}")
        if self.burst_min > self.burst_max:
            raise ValueError(
                f"empty burst range [{self.burst_min}, {self.burst_max}]"
            )


def generate(spec: WorkloadSpec) -> TaskSet:
    """Draw ``spec.n`` bursts uniformly from [burst_min, burst_max]."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    bursts = rng.integers(spec.burst_min, spec.burst_max + 1, size=spec.n)
    return TaskSet(
        tuple(Task(id=i + 1, burst=int(burst)) for i, burst in enumerate(bursts))
    )


class TaskFileError(ValueError):
    """A task file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def load_tasks(source: str) -> TaskSet:
    """Parse task file text into a TaskSet, preserving line order as queue order."""
    tasks: list[Task] = []
    seen: set[int] = set()
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (2, 3):
            raise TaskFileError(
                line_number, f"expected 'id,burst[,weight]', got {raw.strip()!r}"
            )
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise TaskFileError(line_number, f"non-integer field in {raw.strip()!r}") from None
        task_id, burst = values[0], values[1]
        weight = values[2] if len(values) == 3 else 1
        if task_id in seen:
            raise TaskFileError(line_number, f"duplicate task id {task_id}")
        try:
            task = Task(id=task_id, burst=burst, weight=weight)
        except ValueError as exc:
            raise TaskFileError(line_number, str(exc)) from None
        seen.add(task_id)
        tasks.append(task)
    if not tasks:
        raise TaskFileError(0, "no tasks found")
    return TaskSet(tuple(tasks))


def save_tasks(tasks: TaskSet) -> str:
    """Serialize to the task file format; load(save(t)) == t."""
    lines = []
    for task in tasks:
        if task.weight != 1:
            lines.append(f"{task.id},{task.burst},{task.weight}")
        else:
            lines.append(f"{task.id},{task.burst}")
    return "\n".join(lines) + "\n"
