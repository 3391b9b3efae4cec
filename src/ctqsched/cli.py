"""Command-line harness.

Subcommands:

* ``simulate`` -- run one scheduler (fixed RR, FCFS or CTQ) on a task file
  of ``id,burst`` lines; prints a metrics block, plus the slice list
  (``task_id,start,end,round`` lines) with ``--gantt``. ``--tq`` goes
  with ``rr`` only, which needs it, and ``--first-tq`` with ``ctq`` only.
* ``best-tq``  -- report the quantum minimizing average waiting time.
* ``compare``  -- fixed RR vs CTQ vs FCFS over seeded workloads, CSV or JSON.
* ``generate`` -- write a seeded random task file.

Exit codes: 0 success, 2 usage error, 3 input validation error (including
inputs past a documented bound: more than 2**22 tasks to generate or compare
(``--n``), a negative ``--seed``, a ``--burst-max`` of 2**63 tu or more, a
total burst of 2**63 tu or more, a schedule of more than 2**22 slices, a
scan over more than 4096 tasks, a scan too large for exact int64 totals or
with more than 2**22 candidate quanta), 4 internal invariant violation.
"""

import argparse
import functools
import sys
from pathlib import Path

from .analytic import best_quantum
from .ctq import CtqTrace, run_ctq
from .experiment import rows_to_csv, rows_to_json, run_comparison
from .model import (
    InvariantViolation,
    MetricsReport,
    Schedule,
    TaskSet,
    format_fraction,
    metrics_from_schedule,
)
from .simulate import simulate_fcfs, simulate_fixed_rr
from .workload import generate, load_tasks, save_tasks


class UsageError(Exception):
    pass


def _read_tasks(path: str) -> TaskSet:
    # utf-8-sig drops a leading byte-order mark, which some editors write.
    return load_tasks(Path(path).read_text(encoding="utf-8-sig"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _gantt_lines(schedule: Schedule) -> list[str]:
    return [f"{task_id},{start},{end},{number}" for task_id, start, end, number in schedule]


# One per-task line: a TaskMetrics row is a tuple, so it fills the template
# as it is; ``%s`` renders each field as ``str`` does.
_TASK_LINE = "task %s: completion=%s turnaround=%s waiting=%s switches=%s slices=%s"


def _metrics_lines(tasks: TaskSet, metrics: MetricsReport) -> list[str]:
    return [
        f"tasks: {tasks.n}",
        f"makespan: {metrics.makespan}",
        f"total_waiting: {metrics.total_waiting}",
        f"avg_waiting: {format_fraction(metrics.avg_waiting)}",
        f"avg_turnaround: {format_fraction(metrics.avg_turnaround)}",
        f"context_switches: {metrics.total_context_switches}",
        *map(_TASK_LINE.__mod__, metrics.per_task),
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    tasks = _read_tasks(args.tasks)
    if args.tq is not None and args.algo != "rr":
        raise UsageError("--tq applies only to --algo rr")
    if args.first_tq is not None and args.algo != "ctq":
        raise UsageError("--first-tq applies only to --algo ctq")
    trace: CtqTrace | None = None
    if args.algo == "rr":
        if args.tq is None:
            raise UsageError("--tq is required for --algo rr")
        schedule = simulate_fixed_rr(tasks, args.tq)
    elif args.algo == "fcfs":
        schedule = simulate_fcfs(tasks)
    else:  # ctq
        trace = run_ctq(tasks, args.first_tq)
        schedule = trace.schedule

    metrics = trace.metrics if trace is not None else metrics_from_schedule(schedule)
    lines = []
    if args.gantt:
        lines.extend(_gantt_lines(schedule))
    lines.append(f"algorithm: {args.algo}")
    if args.algo == "rr":
        lines.append(f"quantum: {args.tq}")
    if trace is not None:
        lines.append(f"rounds: {len(trace.rounds)}")
        lines.append(f"tq_sequence: {'|'.join(map(str, trace.quantum_sequence))}")
    lines.extend(_metrics_lines(tasks, metrics))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_best_tq(args: argparse.Namespace) -> int:
    choice = best_quantum(_read_tasks(args.tasks))
    _emit(
        f"tq: {choice.quantum}\n"
        f"avg_waiting: {format_fraction(choice.avg_waiting)}\n"
        f"candidates_evaluated: {choice.candidates_evaluated}\n",
        args.out,
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = run_comparison(args.n, args.burst_min, args.burst_max, args.seed, args.runs)
    text = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    _emit(text, args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    tasks = generate(args.n, args.burst_min, args.burst_max, args.seed)
    _emit(save_tasks(tasks), args.out)
    return 0


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of tasks")
    parser.add_argument("--burst-min", type=int, default=1, help="smallest burst (tu)")
    parser.add_argument("--burst-max", type=int, required=True, help="largest burst (tu)")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ctqsched`` parser, built on the first call and shared after it.

    ``main`` can be called repeatedly in one process and parses every call
    with this one parser. Parsing does not change it: argparse gives each
    call a fresh ``Namespace`` and builds a ``HelpFormatter`` only when it
    prints help or usage, so output, ``COLUMNS`` handling and exit codes
    are those of a fresh parser. Callers must not modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="ctqsched",
        description="Round-robin scheduling toolkit with per-round quantum optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scheduler on a task file")
    p.add_argument("--tasks", required=True, help="task file (id,burst per line)")
    p.add_argument("--algo", required=True, choices=("rr", "ctq", "fcfs"))
    p.add_argument("--tq", type=int, help="quantum for rr (tu)")
    p.add_argument("--first-tq", type=int, help="round-1 quantum for ctq (default: optimized)")
    p.add_argument("--gantt", action="store_true", help="also print the slice list")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("best-tq", help="quantum minimizing average waiting time")
    p.add_argument("--tasks", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_best_tq)

    p = sub.add_parser("compare", help="fixed RR vs CTQ vs FCFS over seeded workloads")
    _add_workload_flags(p)
    p.add_argument("--runs", type=int, default=1, help="number of workloads")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="write a seeded random task file")
    _add_workload_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
