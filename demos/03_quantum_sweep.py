"""How the quantum choice shapes average waiting time.

Sweeps every candidate quantum for one seeded workload and draws a crude
text profile of the average waiting time. The marked row is what
``best_quantum`` picks: the smallest average wait, ties resolved toward the
largest quantum because larger quanta never add context switches.
``best_quantum`` reaches it by evaluating only the quanta at which some
task's full_quanta changes.
"""

from fractions import Fraction

from ctqsched import WorkloadSpec, best_quantum, generate, waiting_profile

tasks = generate(WorkloadSpec(n=6, burst_min=1, burst_max=40, seed=404))
print("queue:", ", ".join(f"T{t.id}={t.burst}tu" for t in tasks), "\n")

largest = max(tasks.bursts())
sweep = [(tq, waiting_profile(tasks, tq).avg_waiting) for tq in range(1, largest + 1)]
worst = max(avg for _, avg in sweep)
choice = best_quantum(tasks)

print("quantum  avg_wait")
for tq, avg in sweep:
    bar = "#" * round(40 * avg / worst)
    mark = "  <- chosen" if tq == choice.quantum else ""
    print(f"  {tq:5d}  {float(avg):8.2f}  {bar}{mark}")

print(f"\nbest_quantum evaluated {choice.candidates_evaluated} of {largest} quanta;")
print(f"quantum {choice.quantum} gives average waiting {Fraction(choice.avg_waiting)} tu")
