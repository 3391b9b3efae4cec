"""Exact CLI output bytes: any change to dispatch order, slice rounds, metric
accounting, the quantum scan or rendering shows up here as a diff against the
pinned text."""

import json

import pytest

from ctqsched.cli import main

FOUR_TASKS = "1,20\n2,7\n3,12\n4,2\n"

SIMULATE_GANTT = {
    "rr": """\
1,0,4,1
2,4,8,1
3,8,12,1
4,12,14,1
1,14,18,2
2,18,21,2
3,21,25,2
1,25,29,3
3,29,33,3
1,33,37,4
1,37,41,5
algorithm: rr
quantum: 4
tasks: 4
makespan: 41
total_waiting: 68
avg_waiting: 17
avg_turnaround: 27.25
context_switches: 6
task 1: completion=41 turnaround=41 waiting=21 switches=3 slices=5
task 2: completion=21 turnaround=21 waiting=14 switches=1 slices=2
task 3: completion=33 turnaround=33 waiting=21 switches=2 slices=3
task 4: completion=14 turnaround=14 waiting=12 switches=0 slices=1
""",
    "fcfs": """\
1,0,20,1
2,20,27,1
3,27,39,1
4,39,41,1
algorithm: fcfs
tasks: 4
makespan: 41
total_waiting: 86
avg_waiting: 21.5
avg_turnaround: 31.75
context_switches: 0
task 1: completion=20 turnaround=20 waiting=0 switches=0 slices=1
task 2: completion=27 turnaround=27 waiting=20 switches=0 slices=1
task 3: completion=39 turnaround=39 waiting=27 switches=0 slices=1
task 4: completion=41 turnaround=41 waiting=39 switches=0 slices=1
""",
    "ctq": """\
1,0,1,1
2,1,2,1
3,2,3,1
4,3,4,1
1,4,5,2
2,5,6,2
3,6,7,2
4,7,8,2
1,8,13,3
2,13,18,3
3,18,23,3
1,23,28,4
3,28,33,4
1,33,41,5
algorithm: ctq
rounds: 5
tq_sequence: 1|1|5|5|8
tasks: 4
makespan: 41
total_waiting: 59
avg_waiting: 14.75
avg_turnaround: 25
context_switches: 10
task 1: completion=41 turnaround=41 waiting=21 switches=4 slices=5
task 2: completion=18 turnaround=18 waiting=11 switches=2 slices=3
task 3: completion=33 turnaround=33 waiting=21 switches=3 slices=4
task 4: completion=8 turnaround=8 waiting=6 switches=1 slices=2
""",
}

# The scan evaluates 10 of the 20 quanta: the left ends of the intervals on
# which every (burst - 1) // tq is constant.
BEST_TQ = """\
tq: 1
avg_waiting: 15.75
candidates_evaluated: 10
"""

COMPARE_ARGS = (
    "compare", "--n", "3", "--burst-min", "1", "--burst-max", "20", "--seed", "5",
    "--runs", "2",
)

COMPARE_CSV = """\
workload_id,n,algorithm,tq_policy,avg_wt,avg_tat,context_switches,makespan,rounds,tq_sequence
0,3,rr,1,31/3,21,26,32,,
0,3,ctq,optimized,19/3,17,2,32,2,1|16
0,3,fcfs,none,15,77/3,0,32,,
1,3,rr,11,29/3,20,0,31,,
1,3,ctq,optimized,29/3,20,0,31,1,11
1,3,fcfs,none,29/3,20,0,31,,
mean,3,rr,mean,10,20.5,13,31.5,,
mean,3,ctq,mean,8,18.5,1,31.5,,
mean,3,fcfs,mean,37/3,137/6,0,31.5,,
"""

JSON_KEYS = (
    "workload_id", "n", "algorithm", "tq_policy", "avg_wt", "avg_tat",
    "context_switches", "makespan", "rounds", "tq_sequence",
)
COMPARE_JSON_ROWS = [
    ("0", 3, "rr", "1", "31/3", "21", "26", "32", None, None),
    ("0", 3, "ctq", "optimized", "19/3", "17", "2", "32", 2, [1, 16]),
    ("0", 3, "fcfs", "none", "15", "77/3", "0", "32", None, None),
    ("1", 3, "rr", "11", "29/3", "20", "0", "31", None, None),
    ("1", 3, "ctq", "optimized", "29/3", "20", "0", "31", 1, [11]),
    ("1", 3, "fcfs", "none", "29/3", "20", "0", "31", None, None),
    ("mean", 3, "rr", "mean", "10", "20.5", "13", "31.5", None, None),
    ("mean", 3, "ctq", "mean", "8", "18.5", "1", "31.5", None, None),
    ("mean", 3, "fcfs", "mean", "37/3", "137/6", "0", "31.5", None, None),
]


def stdout_of(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("algo", sorted(SIMULATE_GANTT))
def test_simulate_gantt_bytes(tmp_path, capsys, algo):
    path = tmp_path / "four.tasks"
    path.write_text(FOUR_TASKS)
    quantum = ("--tq", "4") if algo == "rr" else ()
    out = stdout_of(capsys, "simulate", "--tasks", str(path), "--algo", algo, *quantum, "--gantt")
    assert out == SIMULATE_GANTT[algo]


def test_best_tq_bytes(tmp_path, capsys):
    path = tmp_path / "four.tasks"
    path.write_text(FOUR_TASKS)
    assert stdout_of(capsys, "best-tq", "--tasks", str(path)) == BEST_TQ


def test_compare_csv_bytes(capsys):
    assert stdout_of(capsys, *COMPARE_ARGS) == COMPARE_CSV


def test_compare_json_bytes(capsys):
    expected = [dict(zip(JSON_KEYS, row)) for row in COMPARE_JSON_ROWS]
    assert stdout_of(capsys, *COMPARE_ARGS, "--format", "json") == (
        json.dumps(expected, indent=2) + "\n"
    )
