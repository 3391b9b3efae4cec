"""Every demo script runs to completion against the package's public API,
and the demos that print a hand-checkable run print exactly that run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctqsched

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# The demos' whole stdout, byte for byte.
PINNED_STDOUT = {
    "01_closed_form_vs_simulation.py": """\
Gantt chart (task runs back to back, no idle time):
  T1 0-4 | T2 4-7 | T3 7-10 | T1 10-14 | T1 14-18 | T1 18-22 | T1 22-26 | T1 26-30
  makespan = 30 tu

task  full_quanta  last_slice_start  waiting(analytic)  waiting(simulated)
  T1            5                26                  6                   6
  T2            0                 4                  4                   4
  T3            0                 7                  7                   7

total waiting: 17 tu (both routes agree)
context switches per task: [1, 0, 0]
note: only T1's first slice ends unfinished with another task up next,
so T1 is charged exactly one switch; its later back-to-back slices are free.
""",
    "02_ctq_walkthrough.py": """\
round 1: quantum = 1 tu (user_supplied)
  entering: T1:20tu, T2:20tu, T3:5tu, T4:3tu, T5:1tu
  ran:      T1 0-1 | T2 1-2 | T3 2-3 | T4 3-4 | T5 4-5
  finished: T5

round 2: quantum = 2 tu (optimized)
  entering: T1:19tu, T2:19tu, T3:4tu, T4:2tu
  ran:      T1 5-7 | T2 7-9 | T3 9-11 | T4 11-13
  finished: T4

round 3: quantum = 2 tu (optimized)
  entering: T1:17tu, T2:17tu, T3:2tu
  ran:      T1 13-15 | T2 15-17 | T3 17-19
  finished: T3

round 4: quantum = 15 tu (optimized)
  entering: T1:15tu, T2:15tu
  ran:      T1 19-34 | T2 34-49
  finished: T1, T2

quantum sequence: [1, 2, 2, 15]
avg waiting     : 14.2 tu
avg turnaround  : 24 tu
context switches: 9

fixed quantum of 1 tu on the same queue, for contrast:
avg waiting     : 17 tu
avg turnaround  : 26.8 tu
context switches: 44
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(ctqsched.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    if demo.name in PINNED_STDOUT:
        assert result.stdout == PINNED_STDOUT[demo.name]
