"""The paper's context-switch claim, as exact counts.

The abstract says CTQ keeps context switches "as low as possible". These
tests count CTQ's switches against fixed RR at CTQ's own first quantum, the
quantum ``compare`` gives its RR arm: over the bimodal family, where CTQ
switches far less, and on one ``compare`` seed, where CTQ trades thousands of
switches for a shorter wait.
"""

import csv
import io

from ctqsched import metrics_from_schedule, run_ctq, simulate_fixed_rr
from ctqsched.cli import main


def test_ctq_switches_less_on_bimodal_bursts(bimodal_workloads):
    fewer = equal = more = rr_switches = ctq_switches = 0
    for tasks in bimodal_workloads:
        trace = run_ctq(tasks)
        rr = metrics_from_schedule(simulate_fixed_rr(tasks, trace.quantum_sequence[0]), tasks)
        ctq = trace.metrics.total_context_switches
        fewer += ctq < rr.total_context_switches
        equal += ctq == rr.total_context_switches
        more += ctq > rr.total_context_switches
        rr_switches += rr.total_context_switches
        ctq_switches += ctq
    assert (fewer, equal, more) == (285, 15, 0)
    assert (rr_switches, ctq_switches) == (148386, 4334)


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
