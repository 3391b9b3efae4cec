"""Round-by-round walkthrough of the changeable-time-quantum scheduler.

Five tasks (20, 20, 5, 3, 1 tu) start under a deliberately tiny quantum of
1 tu. After every round the scheduler re-optimizes the quantum for the
survivors' residual work: short tasks get flushed out early, and once only
the two long tasks remain the quantum grows to cover them in one go.
"""

from ctqsched import TaskSet, format_fraction, metrics_from_schedule, run_ctq, simulate_fixed_rr

tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
trace = run_ctq(tasks, first_quantum=1)

for record in trace.rounds:
    survivors = ", ".join(f"T{tid}:{res}tu" for tid, res in record.survivors_before)
    print(f"round {record.number}: quantum = {record.quantum} tu ({record.chosen_by})")
    print(f"  entering: {survivors}")
    ran = [
        f"T{task_id} {start}-{end}"
        for task_id, start, end, number in trace.schedule
        if number == record.number
    ]
    print("  ran:      " + " | ".join(ran))
    if record.completed:
        print(f"  finished: {', '.join(f'T{tid}' for tid in record.completed)}")
    print()

m = trace.metrics
print(f"quantum sequence: {list(trace.quantum_sequence)}")
print(f"avg waiting     : {format_fraction(m.avg_waiting)} tu")
print(f"avg turnaround  : {format_fraction(m.avg_turnaround)} tu")
print(f"context switches: {m.total_context_switches}")

fixed = metrics_from_schedule(simulate_fixed_rr(tasks, 1), tasks)
print("\nfixed quantum of 1 tu on the same queue, for contrast:")
print(f"avg waiting     : {format_fraction(fixed.avg_waiting)} tu")
print(f"avg turnaround  : {format_fraction(fixed.avg_turnaround)} tu")
print(f"context switches: {fixed.total_context_switches}")
