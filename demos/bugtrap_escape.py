"""Unicycle bug trap: noise escapes a local minimum that descent methods cannot.

The robot starts inside a U-shaped obstacle ("bug trap") whose opening faces
away from the goal. Greedy descent on the penalty landscape pulls the
trajectory straight toward the goal, into the closed side of the U, and stalls
there. The diffusion solver crosses the barrier Arrhenius-style: the escape
rate goes as exp(-barrier/sigma^2), so the noise is held hot (sigma = 1.5)
long enough for crossings, tapered to 0.8 so the basin statistics settle on
the escaped side, and only then annealed cold from 0.3 -- jumping over the
intermediate band where escaped chains tend to fall back in.

Runs gradient descent, BFGS, and the problem's two-phase diffusion schedule
(``bundle.phases``) from the same guesses and reports where each one's final
trajectory ends up.
"""

import numpy as np

from langopt import SolverConfig, solve_batch
from langopt.baselines import bfgs_penalty, gradient_descent_cdo
from langopt.nlp import Layout, split
from langopt.problems import BugTrapGeometry, get_problem, trap_bounding_box

N_SEEDS = 5

bundle = get_problem("bugtrap")
geom = BugTrapGeometry()
goal = np.asarray(geom.goal)
box = trap_bounding_box(geom, inflate=0.5)
layout = Layout(geom.K, 3, 2)


def final_position(sol):
    _, X = split(sol.xbar, layout)
    return X[-1, :2]


def describe(p):
    if box[0, 0] <= p[0] <= box[0, 1] and box[1, 0] <= p[1] <= box[1, 1]:
        return "stuck in trap"
    d = np.linalg.norm(p - goal)
    return f"escaped, {d:.2f} from goal" + (" (reached)" if d <= 0.5 else "")


guesses = bundle.guesses(N_SEEDS)

print(f"goal at {tuple(goal)}, trap box x:[{box[0,0]:.1f},{box[0,1]:.1f}] "
      f"y:[{box[1,0]:.1f},{box[1,1]:.1f}]\n")

for name, runner in (
    ("gradient descent", lambda x0: gradient_descent_cdo(
        bundle.nlp, x0, None, SolverConfig(iterations=4000))),
    ("BFGS", lambda x0: bfgs_penalty(
        bundle.nlp, x0, SolverConfig(mu=100.0, iterations=2000))),
):
    print(f"{name}:")
    for s, x0 in enumerate(guesses):
        p = final_position(runner(x0))
        print(f"  seed {s}: final ({p[0]:+.2f}, {p[1]:+.2f})  {describe(p)}")

print("diffusion (hot hold + taper, then cold anneal):")
sols = solve_batch(bundle.nlp, guesses, bundle.phases)
for s, sol in enumerate(sols):
    p = final_position(sol)
    print(f"  seed {s}: final ({p[0]:+.2f}, {p[1]:+.2f})  {describe(p)}")
