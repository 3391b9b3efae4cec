"""The paper's two claims, as exact counts.

The abstract says CTQ lowers the average waiting time and keeps context
switches "as low as possible". These tests count both against fixed RR at
CTQ's own first quantum, the quantum ``compare`` gives its RR arm: over the
bimodal family and the drain shape, where CTQ switches less on nearly every
set; over the ``compare`` family, where CTQ runs more than one round on about
a tenth of the sets; over 48 uniform bursts, where CTQ is FCFS on every set;
over criterion 6's generator, where it runs more than one round on 9 of 300
sets; and on one ``compare`` seed, where CTQ trades thousands of switches for a
shorter wait. Each family also pins its worst ratio of CTQ's total wait to
non-preemptive shortest-job-first's, exactly; the README proves it below 2.
And each family pins how far CTQ's greedy choice sits from the best
sequence of per-round quanta (``reference.best_quantum_sequence``): on how
many sets CTQ waits as little, its worst ratio to the best, exactly, and
the mean gap.
"""

import csv
import io
import math
import random
from fractions import Fraction

import pytest

from ctqsched import TaskSet, metrics_from_schedule, run_ctq, simulate_fixed_rr
from ctqsched.cli import main
from ctqsched.simulate import run_rounds
from ctqsched.workload import generate
from reference import best_quantum_sequence, sjf_total_waiting


def against_rr(tasks):
    """CTQ's trace on ``tasks`` and the metrics of fixed RR at its first quantum."""
    trace = run_ctq(tasks)
    return trace, metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]))


def over_sjf(trace, tasks):
    """CTQ's total wait on ``tasks`` over non-preemptive SJF's, exactly."""
    return Fraction(trace.metrics.total_waiting, sjf_total_waiting(tasks.bursts))


def over_best(trace, tasks):
    """CTQ's total wait on ``tasks`` over the best quantum sequence's, exactly."""
    return Fraction(trace.metrics.total_waiting, best_quantum_sequence(tasks.bursts)[0])


def against_best(ratios):
    """Over a family's ``{seed: over_best}``: on how many sets CTQ waits as
    little as the best sequence, its worst ratio and the first seed giving
    it, and the mean of ratio - 1, to four places."""
    worst = max(ratios, key=ratios.get)
    mean_gap = sum(ratios.values()) / len(ratios) - 1
    return sum(r == 1 for r in ratios.values()), ratios[worst], worst, f"{float(mean_gap):.4f}"


def test_ctq_switches_less_on_bimodal_bursts(bimodal_workloads):
    fewer = equal = more = rr_switches = ctq_switches = 0
    worst = Fraction(0)
    ratios = {}
    for seed, tasks in enumerate(bimodal_workloads):
        trace, rr = against_rr(tasks)
        worst = max(worst, over_sjf(trace, tasks))
        ratios[seed] = over_best(trace, tasks)
        ctq = trace.metrics.total_context_switches
        fewer += ctq < rr.total_context_switches
        equal += ctq == rr.total_context_switches
        more += ctq > rr.total_context_switches
        rr_switches += rr.total_context_switches
        ctq_switches += ctq
    assert (fewer, equal, more) == (285, 15, 0)
    assert (rr_switches, ctq_switches) == (148386, 4334)
    assert worst == Fraction(1147, 584)  # seed 89
    assert against_best(ratios) == (83, Fraction(45025, 30946), 115, "0.0335")


def test_ctq_switches_less_on_drain_bursts():
    """48 bursts log-uniform in [1, 1000] (the shape of the ``ctq_drain``
    bench workload), ``random.Random(s)`` for s = 0..299: CTQ runs more than
    one round and waits strictly less than RR on every set. It switches less
    on all sets but s = 192, where its 22 rounds switch 428 times against
    RR's 397."""
    multi_round = strictly_less = fewer = rr_switches = ctq_switches = 0
    more = []
    worst = Fraction(0)
    ratios = {}
    for seed in range(300):
        rng = random.Random(seed)
        tasks = TaskSet.from_bursts(
            max(1, round(math.exp(rng.uniform(0, math.log(1000))))) for _ in range(48)
        )
        trace, rr = against_rr(tasks)
        worst = max(worst, over_sjf(trace, tasks))
        ratios[seed] = over_best(trace, tasks)
        multi_round += len(trace.quantum_sequence) > 1
        strictly_less += trace.metrics.total_waiting < rr.total_waiting
        ctq = trace.metrics.total_context_switches
        fewer += ctq < rr.total_context_switches
        if ctq > rr.total_context_switches:
            more.append((seed, ctq, rr.total_context_switches, len(trace.quantum_sequence)))
        rr_switches += rr.total_context_switches
        ctq_switches += ctq
    assert (multi_round, strictly_less) == (300, 300)
    assert (fewer, more) == (299, [(192, 428, 397, 22)])
    assert (rr_switches, ctq_switches) == (878160, 40033)
    assert worst == Fraction(93607, 47437)  # seed 13
    assert against_best(ratios) == (0, Fraction(78742, 64115), 227, "0.0537")


def test_ctq_against_rr_over_the_compare_family():
    """``compare --n 12 --burst-max 5000`` at seeds 1..2000: CTQ runs more
    than one round on 221 sets, waits strictly less than RR on 169 of them
    and switches more on 15. On every other set it runs RR's one round, with
    RR's wait and switches."""
    multi_round = strictly_less = more_switches = 0
    worst = Fraction(0)
    ratios = {}
    for seed in range(1, 2001):
        tasks = generate(n=12, burst_min=1, burst_max=5000, seed=seed)
        trace, rr = against_rr(tasks)
        worst = max(worst, over_sjf(trace, tasks))
        ratios[seed] = over_best(trace, tasks)
        if len(trace.quantum_sequence) == 1:
            assert trace.metrics.total_waiting == rr.total_waiting
            assert trace.metrics.total_context_switches == rr.total_context_switches
        multi_round += len(trace.quantum_sequence) > 1
        strictly_less += trace.metrics.total_waiting < rr.total_waiting
        more_switches += trace.metrics.total_context_switches > rr.total_context_switches
    assert (multi_round, strictly_less, more_switches) == (221, 169, 15)
    assert worst == Fraction(196039, 98666)  # seed 951
    assert against_best(ratios) == (978, Fraction(128358, 87235), 555, "0.0428")


def test_ctq_is_fcfs_on_the_uniform_48_family():
    """``compare --n 48 --burst-max 1000`` at seeds 1..300: CTQ's first
    quantum is the largest burst on every set, so it never runs a second
    round, waits what RR waits, task for task, and neither arm switches."""
    one_round = largest_first = same_waits = 0
    switches = set()
    worst = Fraction(0)
    ratios = {}
    for seed in range(1, 301):
        tasks = generate(n=48, burst_min=1, burst_max=1000, seed=seed)
        trace, rr = against_rr(tasks)
        worst = max(worst, over_sjf(trace, tasks))
        ratios[seed] = over_best(trace, tasks)
        one_round += len(trace.quantum_sequence) == 1
        largest_first += trace.quantum_sequence[0] == max(tasks.bursts)
        same_waits += [m.waiting for m in trace.metrics.per_task] == [
            m.waiting for m in rr.per_task
        ]
        switches |= {trace.metrics.total_context_switches, rr.total_context_switches}
    assert (one_round, largest_first, same_waits, switches) == (300, 300, 300, {0})
    assert worst == Fraction(575519, 309129)  # seed 287
    assert against_best(ratios) == (123, Fraction(630525, 555631), 226, "0.0169")


def test_ctq_against_rr_over_criterion_6s_generator():
    """Criterion 6's generator (``random.Random(20260810)``, n drawn from
    5..50, bursts in 1..500 at seeds 9000 + i) run to 300 sets: CTQ runs
    more than one round on 9 sets, waits strictly less than RR on 7 and
    longer on none, and switches less on 7, equally on 293 and more on none.
    So criterion 6's strict "<" rests on the few multi-round sets."""
    rng = random.Random(20260810)
    multi_round = less = longer = fewer = equal = more = rr_switches = ctq_switches = 0
    worst = Fraction(0)
    ratios = {}
    for i in range(300):
        tasks = generate(rng.randint(5, 50), 1, 500, 9000 + i)
        trace, rr = against_rr(tasks)
        worst = max(worst, over_sjf(trace, tasks))
        ratios[i] = over_best(trace, tasks)
        multi_round += len(trace.quantum_sequence) > 1
        less += trace.metrics.total_waiting < rr.total_waiting
        longer += trace.metrics.total_waiting > rr.total_waiting
        ctq = trace.metrics.total_context_switches
        fewer += ctq < rr.total_context_switches
        equal += ctq == rr.total_context_switches
        more += ctq > rr.total_context_switches
        rr_switches += rr.total_context_switches
        ctq_switches += ctq
    assert (multi_round, less, longer) == (9, 7, 0)
    assert (fewer, equal, more) == (7, 293, 0)
    assert (rr_switches, ctq_switches) == (228, 70)
    assert worst == Fraction(22636, 11659)  # seed 9043
    assert against_best(ratios) == (154, Fraction(63, 46), 145, "0.0251")  # seed 9145


def test_ctq_trades_switches_for_wait_at_compare_seed_917(capsys):
    """Twelve bursts up to 5000 tu: RR at CTQ's first quantum, 1480, waits
    85129/6 tu on average with 9 switches. CTQ then picks quantum 1 in 1,306
    of its 1,316 rounds and waits 41435/3 (2.7 % less) with 6,541 switches."""
    assert main(["compare", "--n", "12", "--burst-max", "5000", "--seed", "917"]) == 0
    table = csv.DictReader(io.StringIO(capsys.readouterr().out))
    rows = {row["algorithm"]: row for row in table if row["workload_id"] == "0"}
    rr, ctq = rows["rr"], rows["ctq"]
    assert (rr["tq_policy"], rr["avg_wt"], rr["context_switches"]) == ("1480", "85129/6", "9")
    assert (ctq["avg_wt"], ctq["context_switches"], ctq["rounds"]) == ("41435/3", "6541", "1316")
    quanta = ctq["tq_sequence"].split("|")
    assert (len(quanta), quanta[0], quanta.count("1")) == (1316, "1480", 1306)


@pytest.mark.parametrize(
    "bursts,ctq_total,best_total,quanta",
    [([6, 5, 2], 17, 16, (2, 4)), ([4, 20, 3, 14, 2, 10], 121, 116, (4, 16))],
)
def test_the_best_quantum_sequence_waits_less_than_ctq(bursts, ctq_total, best_total, quanta):
    tasks = TaskSet.from_bursts(bursts)
    assert run_ctq(tasks).metrics.total_waiting == ctq_total
    assert best_quantum_sequence(bursts) == (best_total, quanta)
    assert metrics_from_schedule(run_rounds(tasks, quanta)).total_waiting == best_total


def test_the_best_sequence_at_compare_seed_917_takes_four_rounds():
    """CTQ waits 165,740 tu in total over 1,316 rounds with 6,541 switches;
    the best sequence of quanta waits 163,734 in 4 rounds with 13."""
    tasks = generate(n=12, burst_min=1, burst_max=5000, seed=917)
    ctq = run_ctq(tasks)
    total, quanta = best_quantum_sequence(tasks.bursts)
    best = metrics_from_schedule(run_rounds(tasks, quanta))
    rounds = len(ctq.quantum_sequence)
    assert (ctq.metrics.total_waiting, rounds, ctq.metrics.total_context_switches) == (
        165740, 1316, 6541,
    )
    assert (total, best.total_waiting, len(quanta), best.total_context_switches) == (
        163734, 163734, 4, 13,
    )
