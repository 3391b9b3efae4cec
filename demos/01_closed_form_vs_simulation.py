"""Closed-form round-robin waiting times vs the dispatch loop.

A queue of one long task followed by two short ones, run with a quantum of
4 tu, is small enough to follow by eye: the toolkit computes each task's
waiting time twice -- analytically and by simulating every slice -- and the
two must agree exactly.
"""

from ctqsched import (
    TaskSet,
    metrics_from_schedule,
    simulate_fixed_rr,
    waiting_profile,
)

tasks = TaskSet.from_bursts([24, 3, 3])
quantum = 4

schedule = simulate_fixed_rr(tasks, quantum)
print("Gantt chart (task runs back to back, no idle time):")
print("  " + " | ".join(f"T{task_id} {start}-{end}" for task_id, start, end, _ in schedule))
print(f"  makespan = {schedule.makespan} tu\n")

profile = waiting_profile(tasks, quantum)
report = metrics_from_schedule(schedule)

print("task  full_quanta  last_slice_start  waiting(analytic)  waiting(simulated)")
for row, metrics in zip(profile.per_task, report.per_task):
    print(
        f"  T{row.task_id}   {row.full_quanta:10d}  {row.last_slice_start:16d}"
        f"  {row.waiting:17d}  {metrics.waiting:18d}"
    )
    assert row.waiting == metrics.waiting

print(f"\ntotal waiting: {profile.total_waiting} tu (both routes agree)")
print("context switches per task:", [m.context_switches for m in report.per_task])
print("note: only T1's first slice ends unfinished with another task up next,")
print("so T1 is charged exactly one switch; its later back-to-back slices are free.")
