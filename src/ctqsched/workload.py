"""Seeded task-set generation and the on-disk task file format.

Generation is pinned to numpy's PCG64 bit generator (seeded through
``SeedSequence``) with ``Generator.integers`` for the bounded draw, so the
same arguments reproduce the same task set on any platform.

Task files are plain text, one task per line::

    # comment
    id,burst

UTF-8, LF or CRLF accepted (the command line also drops a leading byte-order
mark); saves emit LF. Lines end at LF only, so the line numbers in errors are
the ones an editor shows: a form feed, file separator or other Unicode line
break inside a line is whitespace there, not a line end. The CR of a CRLF is
whitespace that ``int`` and ``str.strip`` drop, and the command line reads
files in universal-newline mode, which turns a lone CR into LF. A line with
any other number of fields is an error.
Loading reads the lines once into two columns for :class:`~ctqsched.model.TaskSet`
to check; only a file that fails is read again, line by line, to find its
first faulty line.
"""

from typing import NoReturn

import numpy as np

from .model import _INT64_LIMIT, TaskSet
from .simulate import _SLICE_LIMIT

# ``int`` strips the whitespace that ``str.strip`` does except the separators
# U+001C to U+001F; read as spaces, those are stripped too.
_SEPARATORS = dict.fromkeys(range(0x1C, 0x20), " ")


def generate(n: int, burst_min: int, burst_max: int, seed: int) -> TaskSet:
    """Draw ``n`` bursts uniformly from [burst_min, burst_max]; ``seed``
    fully determines them.

    The arguments are checked before anything is drawn. ``n`` may not exceed
    ``_SLICE_LIMIT`` (2**22): every task takes at least one slice, so no
    larger set can be scheduled, and refusing it first keeps it from being
    drawn. ``seed`` must be non-negative and ``burst_max`` below 2**63 tu,
    the bounds of the PCG64 seed and of the int64 draw; they are checked
    after the others, so the message names the argument rather than coming
    from numpy.
    """
    if n < 1:
        raise ValueError(f"task count must be at least 1, got {n}")
    if n > _SLICE_LIMIT:
        raise ValueError(
            f"task count must be at most {_SLICE_LIMIT}, got {n}: "
            "a schedule holds at most that many slices"
        )
    if burst_min < 1:
        raise ValueError(f"burst_min must be at least 1 tu, got {burst_min}")
    if burst_min > burst_max:
        raise ValueError(f"empty burst range [{burst_min}, {burst_max}]")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if burst_max >= _INT64_LIMIT:
        raise ValueError(f"burst_max must be below 2**63 tu, got {burst_max}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bursts = rng.integers(burst_min, burst_max + 1, size=n)
    return TaskSet.from_bursts(bursts.tolist())


class TaskFileError(ValueError):
    """A task file could not be parsed. ``line_number`` is the 1-based line at
    fault, or ``None`` when the file as a whole is (it holds no tasks)."""

    def __init__(self, line_number: int | None, message: str):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def load_tasks(source: str) -> TaskSet:
    """Parse task file text into a TaskSet, preserving line order as queue order.
    One pass fills two columns and the task set checks them; each field is
    stripped as ``str.strip`` strips it. A file that fails is walked to raise
    its first fault."""
    ids, bursts = [], []
    try:
        for raw in source.translate(_SEPARATORS).split("\n"):
            line = raw.split("#", 1)[0]
            if line and not line.isspace():
                task_id, burst = line.split(",")
                ids.append(int(task_id))
                bursts.append(int(burst))
        return TaskSet(ids, bursts)
    except ValueError:
        pass
    _raise_first_line_fault(source)


def _raise_first_line_fault(source: str) -> NoReturn:
    """Raise the first fault of task file text that failed to load. Each line,
    in order, is checked for a field count other than two, a field that is no
    integer or too long to read, an id seen before and the task set's row
    checks; a file with no faulty line holds no tasks."""
    seen: set[int] = set()
    for line_number, raw in enumerate(source.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise TaskFileError(line_number, f"expected 'id,burst', got {raw.strip()!r}")
        task_id, burst = [_int_field(line_number, raw, f) for f in fields]
        if task_id in seen:
            raise TaskFileError(line_number, f"duplicate task id {task_id}")
        try:
            TaskSet((task_id,), (burst,))
        except ValueError as exc:
            raise TaskFileError(line_number, str(exc)) from None
        seen.add(task_id)
    raise TaskFileError(None, "no tasks found")


def _int_field(line_number: int, raw: str, field: str) -> int:
    """A stripped ``field`` as an int. A field of an optional sign and decimal
    runs joined by single underscores that ``int`` still refuses is past its
    digit limit, and is reported by its digit count without echoing the line."""
    try:
        return int(field)
    except ValueError:
        digits = field[1:] if field.startswith(("+", "-")) else field
        if all(part.isdecimal() for part in digits.split("_")):
            message = f"integer field of {len(digits.replace('_', ''))} digits is too large"
        else:
            message = f"non-integer field in {raw.strip()!r}"
        raise TaskFileError(line_number, message) from None


def save_tasks(tasks: TaskSet) -> str:
    """Serialize to the task file format; load(save(t)) == t."""
    return "".join(f"{task_id},{burst}\n" for task_id, burst in zip(tasks.ids, tasks.bursts))
