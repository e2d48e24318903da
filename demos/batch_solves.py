"""Batch solving: many chains from randomized initial conditions.

All chains share one vectorized stepping kernel, so a batch costs far less
than N sequential solves. Chain i draws its noise from seed + i; results are
byte-reproducible and independent of the thread count.
"""

import time

import numpy as np

from langopt import SolverConfig, solve_batch
from langopt.problems import get_problem

N = 16

bundle = get_problem("pendulum")
guesses = bundle.guesses(N)

t0 = time.perf_counter()
sols = solve_batch(bundle.nlp, guesses, SolverConfig(seed=0))
wall = time.perf_counter() - t0

hsq = np.array([s.hsq for s in sols])
cost = np.array([s.cost for s in sols])
print(f"{N} chains in {wall:.1f} s ({wall / N:.2f} s/chain amortized)")
print(f"||h||^2: median {np.median(hsq):.2e}, worst {hsq.max():.2e}")
print(f"cost:    median {np.median(cost):.3f}, best {cost.min():.3f}")
print(f"all succeeded: {all(s.success for s in sols)}")
