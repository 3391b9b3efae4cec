"""The three benchmark workloads: their inputs, their ops and their output checks.

Each workload draws a fixed pool of ``pool_size`` inputs from the workload
seed. Op ``k`` runs the ``ctqsched`` command line on pool entry
``k % pool_size`` and writes its output to a scratch file.

The output checks deliberately avoid the code path that produced the output.
They never call ``best_quantum``, the simulators, ``metrics_from_schedule``,
``generate`` or ``format_fraction``. They re-derive each figure from:

* the scalar closed form ``analytic.waiting_profile``;
* hand-computed FCFS prefix sums;
* ``replay_rounds`` below, a separate round-by-round dispatcher written for
  these checks alone.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


class CheckFailed(Exception):
    """An op's output disagrees with an independently derived value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Replay:
    completion: list[int]
    slices: list[int]
    switches: list[int]
    rounds: int


def replay_rounds(bursts: list[int], quanta) -> Replay:
    """Dispatch round by round: each unfinished task, in queue order, runs
    min(quantum, work left). With every task arriving at time 0 this is fixed
    RR when ``quanta`` repeats one value, and CTQ when it is CTQ's sequence.
    A task pays a context switch for a slice that leaves work behind and is
    followed by another task's slice."""
    n = len(bursts)
    left = list(bursts)
    completion, slices, switches = [0] * n, [0] * n, [0] * n
    clock, rounds, previous = 0, 0, None  # previous: (task, finished)
    for quantum in quanta:
        alive = [i for i in range(n) if left[i]]
        if not alive:
            break
        rounds += 1
        for i in alive:
            run = min(quantum, left[i])
            clock += run
            left[i] -= run
            slices[i] += 1
            if previous is not None and not previous[1] and previous[0] != i:
                switches[previous[0]] += 1
            previous = (i, left[i] == 0)
            if not left[i]:
                completion[i] = clock
    expect(not any(left), f"quanta ran out with {sum(map(bool, left))} tasks unfinished")
    return Replay(completion, slices, switches, rounds)


def scan_quantum(analytic, model, residuals: list[int]) -> int:
    """Pure-Python candidate scan over the scalar closed form: the largest
    quantum in [1, max residual] with the least total waiting."""
    tasks = model.TaskSet.from_bursts(residuals)
    best_q = best_total = None
    for quantum in range(1, max(residuals) + 1):
        total = analytic.waiting_profile(tasks, quantum).total_waiting
        if best_total is None or total <= best_total:
            best_q, best_total = quantum, total
    return best_q


def scan_cells(bursts: list[int], quanta: list[int]) -> int:
    """Closed-form evaluations (n * n per candidate) that ``scan_quantum``
    needs to re-derive every round of a CTQ run."""
    residuals, cells = list(bursts), 0
    for quantum in quanta:
        cells += max(residuals) * len(residuals) ** 2
        residuals = [r - quantum for r in residuals if r > quantum]
    return cells


def _fraction(text: str) -> Fraction:
    return Fraction(text)  # accepts both "26.8" and "134/5"


def parse_simulate(text: str) -> tuple[dict[str, str], list[dict[str, int]]]:
    """Split ``simulate`` output into its header fields and per-task lines."""
    header: dict[str, str] = {}
    tasks: list[dict[str, int]] = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("task "):
            row = {"id": int(key[len("task "):])}
            for field in value.split():
                name, _, number = field.partition("=")
                row[name] = int(number)
            tasks.append(row)
        else:
            expect(key not in header, f"duplicate output field {key!r}")
            header[key] = value
    return header, tasks


def check_metrics_block(
    header: dict[str, str], rows: list[dict[str, int]], ids: list[int],
    bursts: list[int], replay: Replay,
) -> None:
    """Checks shared by every ``simulate`` output against the replay."""
    n, total = len(bursts), sum(bursts)
    expect(int(header["tasks"]) == n, "task count")
    expect(int(header["makespan"]) == total, "makespan is not the sum of bursts")
    expect([r["id"] for r in rows] == ids, "per-task lines out of queue order")
    for row, burst, completion, slices, switches in zip(
        rows, bursts, replay.completion, replay.slices, replay.switches
    ):
        expect(row["waiting"] == row["completion"] - burst, f"task {row['id']}: waiting")
        expect(row["turnaround"] == row["completion"], f"task {row['id']}: turnaround")
        expect(row["completion"] == completion, f"task {row['id']}: completion")
        expect(row["slices"] == slices, f"task {row['id']}: slices")
        expect(row["switches"] == switches, f"task {row['id']}: switches")
    waiting = sum(r["waiting"] for r in rows)
    expect(int(header["total_waiting"]) == waiting, "total_waiting")
    expect(_fraction(header["avg_waiting"]) == Fraction(waiting, n), "avg_waiting")
    expect(
        _fraction(header["avg_turnaround"]) == Fraction(sum(replay.completion), n),
        "avg_turnaround",
    )
    expect(int(header["context_switches"]) == sum(replay.switches), "context_switches")


@dataclass(frozen=True)
class TaskFile:
    path: Path
    bursts: list[int]


def write_task_file(path: Path, bursts: list[int]) -> TaskFile:
    path.write_text("".join(f"{i},{b}\n" for i, b in enumerate(bursts, start=1)),
                    encoding="utf-8")
    return TaskFile(path, bursts)


class CompareUniform:
    """``compare`` on 12 tasks with bursts uniform in [1, 5000], one seed per op.

    Its time goes to ``best_quantum`` with few tasks and a wide quantum axis.
    """

    name = "compare_uniform"
    pool_size = 2048
    n, burst_min, burst_max = 12, 1, 5000

    def make_pool(self, rng: random.Random, workdir: Path, size: int) -> list[int]:
        return [rng.randrange(2**32) for _ in range(size)]

    def argv(self, entry: int, out: str) -> list[str]:
        return ["compare", "--n", str(self.n), "--burst-min", str(self.burst_min),
                "--burst-max", str(self.burst_max), "--seed", str(entry),
                "--runs", "1", "--out", out]

    def bursts(self, entry: int) -> list[int]:
        # The documented generation contract (PCG64, bounded integers), drawn
        # here without going through ctqsched.workload.generate.
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(entry))
        return [int(b) for b in rng.integers(self.burst_min, self.burst_max + 1, size=self.n)]

    def check(self, modules, entry: int, text: str) -> None:
        analytic = modules["analytic"]
        bursts = self.bursts(entry)
        n, total = len(bursts), sum(bursts)
        tasks = modules["model"].TaskSet.from_bursts(bursts)
        lines = text.splitlines()
        expect(text.endswith("\n") and len(lines) == 7, "compare output has 7 lines")
        expect(lines[0] == ("workload_id,n,algorithm,tq_policy,avg_wt,avg_tat,"
                            "context_switches,makespan,rounds,tq_sequence"), "CSV header")
        rows = [line.split(",") for line in lines[1:]]
        expect(all(len(r) == 10 for r in rows), "CSV rows have 10 fields")
        expect([(r[0], r[1], r[2]) for r in rows] == [
            (w, str(n), a) for w in ("0", "mean") for a in ("rr", "ctq", "fcfs")
        ], "row order")
        for r in rows:
            expect(_fraction(r[7]) == total, f"{r[2]}: makespan is not the sum of bursts")
            expect(_fraction(r[5]) == _fraction(r[4]) + Fraction(total, n),
                   f"{r[2]}: avg_tat is not avg_wt plus the mean burst")
        rr, ctq, fcfs = rows[:3]

        quantum = int(rr[3])
        expect(1 <= quantum <= max(bursts), "rr quantum out of range")
        best = analytic.waiting_profile(tasks, quantum).total_waiting
        expect(_fraction(rr[4]) == Fraction(best, n), "rr avg_wt is not waiting_profile at its tq")
        for neighbour in (quantum - 1, quantum + 1):
            if 1 <= neighbour <= max(bursts):
                expect(analytic.waiting_profile(tasks, neighbour).total_waiting >= best,
                       f"waiting_profile at tq {neighbour} beats the rr row's tq {quantum}")
        fixed = replay_rounds(bursts, itertools.repeat(quantum))
        expect(_fraction(rr[6]) == sum(fixed.switches), "rr context_switches")
        expect(rr[8] == rr[9] == "", "rr row has no rounds")

        expect(ctq[3] == "optimized", "ctq tq_policy")
        sequence = [int(q) for q in ctq[9].split("|")]
        replay = replay_rounds(bursts, sequence)
        expect(int(ctq[8]) == len(sequence) == replay.rounds, "ctq rounds")
        expect(_fraction(ctq[4]) == Fraction(sum(replay.completion) - total, n), "ctq avg_wt")
        expect(_fraction(ctq[6]) == sum(replay.switches), "ctq context_switches")

        starts = [sum(bursts[:i]) for i in range(n)]
        expect(fcfs[3] == "none", "fcfs tq_policy")
        expect(_fraction(fcfs[4]) == Fraction(sum(starts), n), "fcfs avg_wt")
        expect(_fraction(fcfs[6]) == 0, "fcfs context_switches")

        for single, mean in zip(rows[:3], rows[3:]):
            expect(mean[3] == "mean" and mean[4:8] == single[4:8] and mean[8:] == ["", ""],
                   f"{single[2]}: mean row of one run differs from the run")

    def deep_check(self, modules, pool, outputs) -> tuple[int, dict[int, str]]:
        return 0, {}

    def guard(self, layers: dict[str, float], rounds_per_op: list[int]) -> str | None:
        if not any(r > 1 for r in rounds_per_op):
            return "no traced op ran CTQ for more than one round"
        return None


class TaskFileWorkload:
    """Base for the ``simulate`` workloads: the pool is a set of task files."""

    def parse(self, entry: TaskFile, text: str):
        header, rows = parse_simulate(text)
        expect(text.endswith("\n"), "output ends with a newline")
        return header, rows, list(range(1, len(entry.bursts) + 1))

    def deep_check(self, modules, pool, outputs) -> tuple[int, dict[int, str]]:
        return 0, {}


class CtqDrain(TaskFileWorkload):
    """``simulate --algo ctq`` on 48 bursts drawn log-uniformly from [1, 1000].

    CTQ runs several rounds here, each rescanning a shrinking survivor set.
    The bursts stop at 1000 rather than 2000 to halve the scan per op: the
    tail that p90 reads then holds about 80 ops per 30 s run, not 30.
    """

    name = "ctq_drain"
    pool_size = 512
    n, burst_max = 48, 1000
    # Budget of closed-form evaluations for re-deriving every round's quantum
    # by the pure-Python scan, a few seconds on one core.
    scan_budget_cells = 15_000_000
    scan_inputs = 2

    def make_pool(self, rng: random.Random, workdir: Path, size: int) -> list[TaskFile]:
        top = math.log(self.burst_max + 1)
        return [write_task_file(workdir / f"tasks-{i:04d}.txt",
                                [min(self.burst_max, int(math.exp(rng.uniform(0.0, top))))
                                 for _ in range(self.n)])
                for i in range(size)]

    def argv(self, entry: TaskFile, out: str) -> list[str]:
        return ["simulate", "--tasks", str(entry.path), "--algo", "ctq", "--out", out]

    def sequence(self, text: str) -> list[int]:
        header, _ = parse_simulate(text)
        return [int(q) for q in header["tq_sequence"].split("|")]

    def check(self, modules, entry: TaskFile, text: str) -> None:
        header, rows, ids = self.parse(entry, text)
        expect(header["algorithm"] == "ctq", "algorithm")
        sequence = self.sequence(text)
        replay = replay_rounds(entry.bursts, sequence)
        expect(int(header["rounds"]) == len(sequence) == replay.rounds, "rounds")
        check_metrics_block(header, rows, ids, entry.bursts, replay)

    def deep_check(self, modules, pool, outputs) -> tuple[int, dict[int, str]]:
        """Re-derive every round's quantum by the pure-Python scan, for the
        first pool entries that fit the budget. Returns the rounds checked and
        the entries whose quanta disagree."""
        budget, checked_inputs, checked_rounds, problems = self.scan_budget_cells, 0, 0, {}
        for index, entry in enumerate(pool):
            if checked_inputs == self.scan_inputs or index not in outputs:
                break
            sequence = self.sequence(outputs[index].decode("utf-8"))
            cost = scan_cells(entry.bursts, sequence)
            if cost > budget:
                continue
            budget -= cost
            residuals = list(entry.bursts)
            for number, quantum in enumerate(sequence, start=1):
                derived = scan_quantum(modules["analytic"], modules["model"], residuals)
                if derived != quantum:
                    problems[index] = f"round {number}: scan gives {derived}, CTQ ran {quantum}"
                    break
                residuals = [r - quantum for r in residuals if r > quantum]
            checked_inputs += 1
            checked_rounds += len(sequence)
        if not checked_rounds:
            problems[-1] = "no CTQ run fitted the scan re-derivation budget"
        return checked_rounds, problems

    def guard(self, layers: dict[str, float], rounds_per_op: list[int]) -> str | None:
        median = statistics.median(rounds_per_op)
        if median < 3:
            return f"median CTQ rounds per op is {median}, below 3"
        return None


class RrFineQuantum(TaskFileWorkload):
    """``simulate --algo rr --tq 1`` on 100 to 300 tasks (200 on average) with
    bursts uniform in [1, 100].

    About 10k slices and no scan: dispatch, metric extraction and output
    formatting carry the work. The task counts are stratified over the pool,
    so every seed gets the same spread of op sizes. Op sizes must spread:
    on a machine whose speed alternates between two states, equal-sized ops
    give two sharp latency peaks, and the median jumps from one to the other.
    """

    name = "rr_fine_quantum"
    pool_size = 64
    n_min, n_max, burst_max = 100, 300, 100

    def make_pool(self, rng: random.Random, workdir: Path, size: int) -> list[TaskFile]:
        span = self.n_max - self.n_min
        sizes = [self.n_min + int((i + rng.random()) * span / size) for i in range(size)]
        rng.shuffle(sizes)
        return [write_task_file(workdir / f"tasks-{i:04d}.txt",
                                [rng.randint(1, self.burst_max) for _ in range(n)])
                for i, n in enumerate(sizes)]

    def argv(self, entry: TaskFile, out: str) -> list[str]:
        return ["simulate", "--tasks", str(entry.path), "--algo", "rr", "--tq", "1",
                "--out", out]

    def check(self, modules, entry: TaskFile, text: str) -> None:
        header, rows, ids = self.parse(entry, text)
        expect(header["algorithm"] == "rr" and header["quantum"] == "1", "algorithm and quantum")
        check_metrics_block(header, rows, ids, entry.bursts,
                            replay_rounds(entry.bursts, itertools.repeat(1)))
        profile = modules["analytic"].waiting_profile(
            modules["model"].TaskSet.from_bursts(entry.bursts), 1)
        expect(int(header["total_waiting"]) == profile.total_waiting,
               "total_waiting is not waiting_profile at tq 1")
        expect([r["waiting"] for r in rows] == [t.waiting for t in profile.per_task],
               "per-task waiting is not waiting_profile at tq 1")

    def guard(self, layers: dict[str, float], rounds_per_op: list[int]) -> str | None:
        if layers["analytic.best_quantum.calls"]:
            return "ops called best_quantum, which fixed RR must not need"
        return None


WORKLOADS = {w.name: w for w in (CompareUniform(), CtqDrain(), RrFineQuantum())}
