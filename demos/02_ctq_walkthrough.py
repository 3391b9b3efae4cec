"""Round-by-round walkthrough of the changeable-time-quantum scheduler.

Five tasks (20, 20, 5, 3, 1 tu) start under a deliberately tiny quantum of
1 tu. After every round the scheduler re-optimizes the quantum for the
survivors' residual work: short tasks get flushed out early, and once only
the two long tasks remain the quantum grows to cover them in one go.
"""

from ctqsched import TaskSet, format_fraction, metrics_from_schedule, run_ctq, simulate_fixed_rr

tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
trace = run_ctq(tasks, first_quantum=1)

# The schedule's rows of a round are the tasks entering it; a row that runs
# all the work its task has left finishes that task.
# Round 1 ran the supplied quantum; the scan chose every later one.
left = dict(zip(tasks.ids, tasks.bursts))
for round_number, quantum in enumerate(trace.quantum_sequence, start=1):
    rows = [
        (task_id, start, end)
        for task_id, start, end, number in trace.schedule
        if number == round_number
    ]
    chosen_by = "user_supplied" if round_number == 1 else "optimized"
    print(f"round {round_number}: quantum = {quantum} tu ({chosen_by})")
    print("  entering: " + ", ".join(f"T{task_id}:{left[task_id]}tu" for task_id, _, _ in rows))
    print("  ran:      " + " | ".join(f"T{task_id} {start}-{end}" for task_id, start, end in rows))
    finished = [f"T{task_id}" for task_id, start, end in rows if end - start == left[task_id]]
    if finished:
        print(f"  finished: {', '.join(finished)}")
    print()
    for task_id, start, end in rows:
        left[task_id] -= end - start

m = trace.metrics
print(f"quantum sequence: {list(trace.quantum_sequence)}")
print(f"avg waiting     : {format_fraction(m.avg_waiting)} tu")
print(f"avg turnaround  : {format_fraction(m.avg_turnaround)} tu")
print(f"context switches: {m.total_context_switches}")

fixed = metrics_from_schedule(simulate_fixed_rr(tasks, 1))
print("\nfixed quantum of 1 tu on the same queue, for contrast:")
print(f"avg waiting     : {format_fraction(fixed.avg_waiting)} tu")
print(f"avg turnaround  : {format_fraction(fixed.avg_turnaround)} tu")
print(f"context switches: {fixed.total_context_switches}")
