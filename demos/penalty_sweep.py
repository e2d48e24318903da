"""How the penalty parameter controls convergence to dynamic feasibility.

Sweeps mu over four decades on the pendulum, from a shared initial guess,
running the problem's schedule (anneal, then polish) with mu set in both phases.
The multiplier update rate is alpha * mu, so small mu leaves the multipliers
(and therefore the dynamics defects) essentially frozen: the lowest value
never becomes feasible, while moderate values all converge.

Writes sweep rows to penalty_sweep.csv (mu,iter,hsq).
"""

from dataclasses import replace

import numpy as np

from langopt import solve
from langopt.problems import get_problem

MUS = (0.01, 0.1, 1.0, 10.0)

bundle = get_problem("pendulum")
x0 = bundle.guess(np.random.default_rng([0, 0xA5]))

rows = []
print(f"{'mu':>6} {'final ||h||^2':>14}")
for mu in MUS:
    sol = solve(bundle.nlp, x0, config=[replace(p, mu=mu) for p in bundle.phases])
    print(f"{mu:>6} {sol.hsq:>14.3e}")
    for it, hsq in zip(sol.trace.iters, sol.trace.hsq):
        rows.append((mu, int(it), float(hsq)))

with open("penalty_sweep.csv", "w") as f:
    f.write("mu,iter,hsq\n")
    for mu, it, hsq in rows:
        f.write(f"{mu!r},{it},{hsq!r}\n")
print("\nwrote penalty_sweep.csv")
