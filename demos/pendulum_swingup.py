"""Pendulum swingup with the annealed diffusion solver.

Starts from a deliberately infeasible, scattered guess (states drawn uniformly
over a box, controls at zero) and runs the problem's two-phase schedule,
``bundle.phases``:

  1. annealed diffusion with the default noise schedule, which finds the
     basin of a good swingup trajectory while ignoring fine feasibility;
  2. a zero-noise polish with the multipliers carried over, which drives the
     dynamics defects to ~1e-8 so the open-loop rollout of the solved torque
     sequence actually reproduces the solved states.

Prints the torque profile and terminal state, and writes the trace to
pendulum_trace.csv for plotting.
"""

import numpy as np

from langopt import solve
from langopt.nlp import Layout, rollout, split
from langopt.problems import get_problem

bundle = get_problem("pendulum")
ocp = bundle.ocp
x0 = bundle.guess(np.random.default_rng(0))
print(f"initial guess: ||h||^2 = {bundle.nlp.constraint_violation(x0):.3f} (infeasible)")

sol = solve(bundle.nlp, x0, config=bundle.phases)
# the trace runs through both phases; the polish's first record is the annealed point
polish_start = bundle.phases[0].iterations
print(f"after anneal:  ||h||^2 = {sol.trace.hsq[polish_start]:.2e}, "
      f"cost = {sol.trace.cost[polish_start]:.3f}")
print(f"after polish:  ||h||^2 = {sol.hsq:.2e}, cost = {sol.cost:.3f}")

layout = Layout(ocp.K, ocp.nx, ocp.nu)
U, X = split(sol.xbar, layout)
theta_K, theta_dot_K = X[-1]
print(f"\nterminal state: theta = {theta_K:+.3f} rad, theta_dot = {theta_dot_K:+.3f} rad/s")
print(f"torque range: [{U.min():+.2f}, {U.max():+.2f}] (limits are [-1, 1])")

# the solved states should agree with an open-loop rollout of the torques
X_roll = rollout(ocp, U)
print(f"max rollout deviation: {np.max(np.abs(X_roll - X)):.4f}")

with np.printoptions(precision=2, suppress=True):
    print("\ntorque sequence:")
    print(U[:, 0])

sol.trace.to_csv("pendulum_trace.csv")
print("\nwrote pendulum_trace.csv (iter,cost,hsq,energy,sigma)")
