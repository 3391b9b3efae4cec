"""Benchmark of the ctqsched command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads are ``compare_uniform``,
``ctq_drain`` and ``rr_fine_quantum`` (see ``workloads.py``).

One process and one thread act as one closed-loop client: each op calls
``ctqsched.cli.main([...])`` in-process with ``--out`` to a scratch file and
starts only after the previous op returned. The benchmark prints every
metric by name with its unit, then one JSON line with the result. It exits 1
if any op or check failed, and 2 if the sources cannot be found.

``--trace 0`` times the ops for ``--seconds`` with tracing off and reports
the end-to-end metrics named in BENCHMARK.json. Those are CPU times scaled by
a reference kernel that runs before every op, so that the speed swings of a
shared machine cancel out (see ``Reference``); the wall-clock figures of the
same ops are printed and recorded beside them. ``--trace 1`` runs pairs of
untraced and traced groups of ops on the same inputs for ``--seconds``, then
measures ``best_quantum``'s allocation peak in a short pass of its own, and
reports the per-layer metrics. Spans are written to ``bench/.runs`` when the
run ends, next to a JSON record of each run's provenance and result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One client on one thread: keep numpy's thread pools from competing with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / ".runs"

DEFAULT_SEED = 1
# Set-up is repeated and the median of its scaled times reported, so that one
# slow repetition does not decide setup_s.
SETUP_REPEATS = 7
# A scaled time is in milliseconds on a machine where the reference kernel
# takes REFERENCE_MS of CPU (about its median on a 2.1 GHz Xeon VM), and it
# divides by the median kernel time of the REFERENCE_WINDOW runs on either
# side of the op.
REFERENCE_MS = 3.7
REFERENCE_WINDOW = 10
# norm_ops_per_s is the mean rate of the middle half of this many
# consecutive, equal-sized groups of scaled op times. A rare input that takes
# hundreds of CTQ rounds slows one group, which is dropped, while the mean
# over the other groups still averages out the speed swings of the machine.
RATE_GROUPS = 20
# Length of the first group of each untraced/traced pair in a traced run.
PAIR_SECONDS = 0.5
# Ops in the allocation pass (the first pool entries).
ALLOCATION_OPS = 8
# The digest covers the outputs of the first pool entries, which every run
# reaches; at DEFAULT_SEED it must equal the value pinned here.
DIGEST_OPS = 32
PINNED_DIGESTS = {
    "compare_uniform": "e1ecc8717fcf36c9ac35810fb4255de6cc32da5edaf5c8dc38c580530dbfe3eb",
    "ctq_drain": "ad4a0dee68b9e3f2eaef5bc71e08c8995eed2ba587dd8926f3cbf71b0395bd9f",
    "rr_fine_quantum": "899d1db6bf3c6530695ec1f3b1e296c129e6a0acf7d934c06a62b0e83f65f4d1",
}


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctqsched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Reference:
    """A fixed kernel that does not touch ctqsched: interpreter work (a dict,
    a sort, string formatting) and numpy work on a 48 x 2000 array, like the
    program's mix. How fast the same code runs on a shared machine swings by
    10 to 20 % over minutes and up to twice over a few ops, with the load of
    other tenants; the kernel, sampled right before every timed op, swings
    with it, and an op's CPU time divided by the kernel's time around it
    does not. The kernel allocates no large blocks, so that the allocator
    state the program leaves behind does not change its speed."""

    def __init__(self):
        import numpy as np

        self.values = [random.Random(7).random() for _ in range(6000)]
        self.array = np.random.default_rng(7).random((48, 2000))
        self.buffers = (np.empty_like(self.array), np.empty_like(self.array))
        self.samples: list[float] = []  # CPU seconds

    def sample(self) -> int:
        """Run the kernel once; returns the index of its sample."""
        import numpy as np

        array, (scratch, sums) = self.array, self.buffers
        start = time.process_time()
        buckets: dict[int, float] = {}
        for i, value in enumerate(self.values):
            buckets[i % 97] = buckets.get(i % 97, 0.0) + value * 1.5
        ",".join(f"{value:.6f}" for value in sorted(self.values)[:1500])
        for _ in range(3):
            np.minimum(array, 0.5, out=scratch)
            np.multiply(scratch, 3.0, out=scratch)
            np.add(scratch, array, out=scratch)
            np.cumsum(scratch, axis=1, out=sums)
        self.samples.append(time.process_time() - start)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor from CPU seconds to scaled seconds for a time taken next
        to sample ``index``."""
        window = self.samples[max(0, index - REFERENCE_WINDOW):index + REFERENCE_WINDOW + 1]
        return REFERENCE_MS / 1e3 / statistics.median(window)


@dataclass
class Op:
    index: int  # pool entry
    start: float  # wall clock
    end: float
    cpu: float  # CPU seconds of this process during the op
    error: str | None
    ref: int | None = None  # the reference sample taken right before the op


class Client:
    """Runs ops one after another on the pool and keeps the first output of
    each pool entry; a later op on the same entry must reproduce it byte for
    byte."""

    def __init__(self, cli, workload, pool, out: Path):
        self.cli, self.workload, self.pool, self.out = cli, workload, pool, out
        self.outputs: dict[int, bytes] = {}

    def op(self, index: int, observer=None, ref: int | None = None) -> Op:
        argv = self.workload.argv(self.pool[index], str(self.out))
        if observer is not None:
            observer.op += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except (Exception, SystemExit):
            error = traceback.format_exc()
        end, cpu_end = time.perf_counter(), time.process_time()
        if error is None:
            try:
                data = self.out.read_bytes()
                self.out.unlink()
            except OSError as exc:
                error = f"no output: {exc}"
        if error is None and self.outputs.setdefault(index, data) != data:
            error = "output differs from an earlier op on the same input"
        return Op(index, start, end, cpu_end - cpu_start, error, ref)

    def run(self, seconds: float, first: int = 0, observer=None,
            reference: Reference | None = None) -> list[Op]:
        """Closed loop over the pool, from entry ``first``, for ``seconds``,
        with a sample of ``reference`` before every op if one is given."""
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            ref = None if reference is None else reference.sample()
            ops.append(self.op((first + len(ops)) % len(self.pool), observer, ref))
        return ops

    def repeat(self, indices: list[int], observer=None) -> list[Op]:
        return [self.op(index, observer) for index in indices]


def traced_pairs(client: Client, tracer, seconds: float):
    """Alternate untraced and traced groups of ops on the same pool entries,
    swapping which goes first in every other pair, so that drift in machine
    speed cancels out of the tracing overhead. Returns the untraced ops, the
    traced ops and each pair's traced-to-untraced rate ratio."""
    untraced, traced, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    entry = 0
    while time.perf_counter() < deadline:
        if len(ratios) % 2:
            with tracer:
                on = client.run(PAIR_SECONDS, entry, tracer)
            off = client.repeat([op.index for op in on])
        else:
            off = client.run(PAIR_SECONDS, entry)
            with tracer:
                on = client.repeat([op.index for op in off], tracer)
        traced += on
        untraced += off
        ratios.append(busy(off) / busy(on))
        entry = (off[-1].index + 1) % len(client.pool)
    return untraced, traced, ratios


def busy(ops: list[Op]) -> float:
    return sum(op.cpu for op in ops)


def set_up(workload, seed: int, inputs: Path, reference: Reference):
    """Import ctqsched afresh, draw and write the inputs, run one warm-up op.
    Returns the CPU seconds this took, the reference sample taken right
    before, the CLI module and the pool.

    The warm-up input is the same for every seed, so that setup_s does not
    swing with how long one seed's first input happens to take."""
    ref = reference.sample()
    start = time.process_time()
    for name in [m for m in sys.modules if m == "ctqsched" or m.startswith("ctqsched.")]:
        del sys.modules[name]
    cli = importlib.import_module("ctqsched.cli")
    pool = workload.make_pool(random.Random(f"{workload.name}/{seed}"), inputs,
                              workload.pool_size)
    (inputs / "warm-up").mkdir(exist_ok=True)
    warm_up = workload.make_pool(random.Random(f"{workload.name}/warm-up"),
                                 inputs / "warm-up", 1)
    warm = Client(cli, workload, warm_up, inputs / "warm-up.out").op(0)
    elapsed = time.process_time() - start
    if warm.error is not None:
        raise RuntimeError(f"warm-up op failed: {warm.error}")
    return elapsed, ref, cli, pool


def group_rates(times: list[float]) -> list[float]:
    """Correct ops per second in each of RATE_GROUPS consecutive groups of
    op times, in which a failed op's time is infinite."""
    groups = min(RATE_GROUPS, len(times))
    rates = []
    for g in range(groups):
        good = [t for t in times[g * len(times) // groups:(g + 1) * len(times) // groups]
                if math.isfinite(t)]
        rates.append(len(good) / sum(good) if good else 0.0)
    return sorted(rates)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of sorted ``values``."""
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter])


def machine_counters() -> tuple[float, float, int, list[int]]:
    """Wall time, CPU time, involuntary context switches and the machine-wide
    CPU tick counters, to tell afterwards how contended a timed pass was."""
    with open("/proc/stat", encoding="ascii") as f:
        ticks = [int(t) for t in f.readline().split()[1:]]
    return (time.perf_counter(), time.process_time(),
            resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw, ticks)


def contention(before) -> dict[str, float]:
    after = machine_counters()
    wall = after[0] - before[0]
    ticks = [a - b for a, b in zip(after[3], before[3])]
    total = sum(ticks) or 1
    return {"cpu_per_wall": (after[1] - before[1]) / wall,
            "involuntary_switches": after[2] - before[2],
            # Over all CPUs; this benchmark alone keeps 1 / nproc of them busy.
            "machine_busy_share": 1 - (ticks[3] + ticks[4]) / total,
            "steal_share": ticks[7] / total}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def json_number(value: float) -> float | None:
    """JSON has no infinity, which is the latency of a run whose ops all failed."""
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ctqsched" / "__init__.py").is_file():
        fail_setup(f"no ctqsched sources under {SRC}; run from the root of a checkout")
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail_setup(f"cannot read {spec_path.name}: {exc}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    import numpy as np

    load = os.getloadavg()
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
    }

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    inputs = RUNS / tag
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        reference = Reference()
        setups = [set_up(workload, args.seed, inputs, reference)
                  for _ in range(SETUP_REPEATS)]
        cli, pool = setups[-1][2:]
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            fail_setup(f"imported ctqsched from {cli.__file__}, not from {SRC}")
        setup_s = statistics.median(cpu * reference.scale(ref) for cpu, ref, *_ in setups)
        result = measure(args, workload, cli, pool, inputs, provenance, reference,
                         setup_s, spec)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return result


def measure(args, workload, cli, pool, inputs, provenance, reference, setup_s,
            spec) -> int:
    from tracer import ScanAllocation, Tracer
    from workloads import CheckFailed

    client = Client(cli, workload, pool, inputs / "op.out")
    metrics: dict[str, float] = {}
    guard = None
    counters = machine_counters()
    if args.trace == 0:
        gc.collect()
        ops = client.run(args.seconds, reference=reference)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = {"untraced": ops}
    else:
        tracer = Tracer()
        gc.collect()
        untraced, traced, ratios = traced_pairs(client, tracer, args.seconds)
        provenance["not_traced"] = tracer.missing
        allocation = ScanAllocation()
        with allocation:
            client.repeat(list(range(min(ALLOCATION_OPS, len(pool)))), allocation)
        passes = {"untraced": untraced, "traced": traced}
        tracer.write(RUNS / f"{workload.name}-seed{args.seed}-spans.jsonl")
        metrics.update(tracer.layer_metrics(len(traced)))
        metrics["analytic.best_quantum.peak_alloc_mib"] = allocation.mean_peak_mib(
            min(ALLOCATION_OPS, len(pool)))
        metrics["trace.overhead_share"] = 1 - statistics.median(ratios)
        guard = workload.guard(metrics, tracer.rounds_per_op(len(traced)))
    provenance["ops"] = {name: len(ops) for name, ops in passes.items()}
    provenance["contention"] = contention(counters)

    # Output checks: outside the timed passes and outside set-up.
    for index in range(min(DIGEST_OPS, len(pool))):
        if index not in client.outputs:
            client.op(index)
    modules = {name: sys.modules[f"ctqsched.{name}"] for name in ("analytic", "model")}
    problems: dict[int, str] = {}
    for index, data in sorted(client.outputs.items()):
        try:
            workload.check(modules, pool[index], data.decode("utf-8"))
        except (CheckFailed, ValueError, KeyError, IndexError) as exc:
            problems[index] = f"{type(exc).__name__}: {exc}"
    rounds_rederived, deep_problems = workload.deep_check(modules, pool, client.outputs)
    problems.update(deep_problems)
    digest = hashlib.sha256()
    for index in range(min(DIGEST_OPS, len(pool))):
        data = client.outputs.get(index, b"")
        digest.update(len(data).to_bytes(8, "little") + data)
    pinned = PINNED_DIGESTS.get(workload.name) if args.seed == DEFAULT_SEED else None
    digest_ok = pinned is None or digest.hexdigest() == pinned

    all_ops = [op for ops in passes.values() for op in ops]
    bad = set(problems)
    failed = sum(op.error is not None or op.index in bad for op in all_ops)
    wall: dict[str, float] = {}
    if args.trace == 0:
        ops = passes["untraced"]
        ok = [op.error is None and op.index not in bad for op in ops]
        scaled = [op.cpu * reference.scale(op.ref) if good else float("inf")
                  for op, good in zip(ops, ok)]
        elapsed = [op.end - op.start if good else float("inf") for op, good in zip(ops, ok)]
        rates = group_rates(scaled)
        provenance["group_rate_quartiles"] = statistics.quantiles(rates, n=4)
        provenance["reference_ms_quartiles"] = [
            q * 1e3 for q in statistics.quantiles(reference.samples, n=4)]
        metrics.update({
            "norm_ops_per_s": interquartile_mean(rates),
            "norm_latency_p50_ms": percentile(scaled, 50) * 1e3,
            "norm_latency_p90_ms": percentile(scaled, 90) * 1e3,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": setup_s,
            "success_rate": 1 - failed / len(all_ops),
        })
        # Every op on the wall clock: what a user waits on a shared machine,
        # neighbours included. Recorded, not gated.
        wall = {
            "ops_per_s": interquartile_mean(group_rates(elapsed)),
            "latency_p50_ms": percentile(elapsed, 50) * 1e3,
            "latency_p90_ms": percentile(elapsed, 90) * 1e3,
        }
        provenance["wall_clock"] = {k: json_number(v) for k, v in wall.items()}

    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           "or declared in BENCHMARK.json, but not both")

    errors = [op.error for op in all_ops if op.error is not None]
    correct = not errors and not problems and digest_ok and guard is None
    print("provenance: " + json.dumps(provenance))
    for index, problem in sorted(problems.items())[:5]:
        print(f"check failed on pool entry {index}: {problem}")
    for error in errors[:3]:
        print(f"op failed: {error}")
    print(f"checks: {len(client.outputs)} distinct outputs checked, "
          f"{rounds_rederived} CTQ rounds re-derived by the pure-Python scan, "
          f"{len(problems)} failed")
    print(f"output digest of the first {DIGEST_OPS} pool entries: {digest.hexdigest()}"
          + ("" if pinned is None else " (pinned: " + ("match)" if digest_ok else "MISMATCH)")))
    if guard is not None:
        print(f"workload validity guard failed: {guard}")
    for name, value in wall.items():
        print(f"wall clock, not gated: {name} = {value!r}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")

    result = {
        "correct": correct,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": json_number(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    (RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "problems": problems, "guard": guard,
                    "output_digest": digest.hexdigest(), "result": result}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
