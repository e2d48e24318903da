"""How the penalty parameter controls convergence to dynamic feasibility.

Sweeps mu over four decades on the pendulum, from a shared initial guess,
running the problem's schedule (anneal, then polish) with mu set in both phases.
The sweep is one batch with one chain per mu (per-chain schedules).
The multiplier update rate is alpha * mu, so small mu leaves the multipliers
(and therefore the dynamics defects) essentially frozen: the lowest value
never becomes feasible, while moderate values all converge.

Writes sweep rows to penalty_sweep.csv (mu,iter,hsq).
"""

from dataclasses import replace

from langopt import solve_batch
from langopt.problems import get_problem

MUS = (0.01, 0.1, 1.0, 10.0)

bundle = get_problem("pendulum")
(x0,) = bundle.guesses(1)

# one batch, one chain per mu: chain j runs the schedule with mu = MUS[j]
scheds = [[replace(p, mu=mu) for p in bundle.phases] for mu in MUS]
sols = solve_batch(bundle.nlp, [x0] * len(MUS), scheds)

print(f"{'mu':>6} {'final ||h||^2':>14}")
with open("penalty_sweep.csv", "w") as f:
    f.write("mu,iter,hsq\n")
    for mu, sol in zip(MUS, sols):
        print(f"{mu:>6} {sol.hsq:>14.3e}")
        for it, hsq in zip(sol.trace.iters, sol.trace.hsq):
            f.write(f"{mu!r},{int(it)},{float(hsq)!r}\n")
print("\nwrote penalty_sweep.csv")
