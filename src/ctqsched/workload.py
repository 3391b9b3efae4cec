"""Seeded task-set generation and the on-disk task file format.

Generation is pinned to numpy's PCG64 bit generator (seeded through
``SeedSequence``) with ``Generator.integers`` for the bounded draw, so the
same spec reproduces the same task set on any platform.

Task files are plain text, one task per line::

    # comment
    id,burst

UTF-8, LF or CRLF accepted (the command line also drops a leading byte-order
mark); saves emit LF. A line with any other number of fields is an error.
Loading reads the lines once into two columns for :class:`~ctqsched.model.TaskSet`
to check; only a file that fails is read again to find its first faulty line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .model import TaskSet
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
    return TaskSet.from_bursts(bursts.tolist())


class TaskFileError(ValueError):
    """A task file could not be parsed. ``line_number`` is the 1-based line at
    fault, or ``None`` when the file as a whole is (it holds no tasks)."""

    def __init__(self, line_number: int | None, message: str):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def load_tasks(source: str) -> TaskSet:
    """Parse task file text into a TaskSet, preserving line order as queue order.
    One lean pass fills two columns (``int`` strips the whitespace that
    ``str.strip`` would) and the task set checks them; a failing file is walked."""
    ids, bursts = [], []
    try:
        for raw in source.splitlines():
            line = raw.split("#", 1)[0]
            if line and not line.isspace():
                task_id, burst = line.split(",")
                ids.append(int(task_id))
                bursts.append(int(burst))
        return TaskSet(ids, bursts)
    except ValueError:
        pass
    _raise_first_fault(source)


def _raise_first_fault(source: str) -> NoReturn:
    """Raise a failing task file's first fault. Each line, in order, is checked for
    a field count other than two, a non-integer field, an id seen before and the
    task set's row checks; a file with no such line holds no tasks."""
    seen: set[int] = set()
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
        try:
            TaskSet((task_id,), (burst,))
        except ValueError as exc:
            raise TaskFileError(line_number, str(exc)) from None
        seen.add(task_id)
    raise TaskFileError(None, "no tasks found")


def save_tasks(tasks: TaskSet) -> str:
    """Serialize to the task file format; load(save(t)) == t."""
    return "".join(f"{task.id},{task.burst}\n" for task in tasks)
