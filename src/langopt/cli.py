"""Command-line front end: run single/batch solves and penalty sweeps, write CSV/JSON.

Configuration can come from a JSON file (``--config``) whose keys mirror the
flag names; explicit flags win over the file. Outputs:

  run:   trace_<i>.csv, snapshots_<i>.csv, summary.json
  sweep: sweep.csv (columns mu,iter,hsq), summary.json

Exit codes: 0 all chains completed, 1 bad arguments, 2 some chain failed
(partial outputs are retained).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, bfgs_penalty, gradient_descent_cdo
from .problems import PROBLEMS, get_problem
from .solver import SolverConfig, _check_seed, solve_batch

SOLVERS = ("diffusion", "gd", "bfgs")

_CONFIG_KEYS = (
    "problem",
    "solver",
    "mu",
    "alpha",
    "sigma0",
    "gamma",
    "iters",
    "hold",
    "batch",
    "seed",
    "threads",
    "out",
    "stride",
    "barrier_weight",
    "mus",
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="langopt",
        description="Equality-constrained Langevin diffusion trajectory optimizer",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "solve a problem"), ("sweep", "penalty-parameter sweep")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--problem", type=str, default=None)
        sp.add_argument("--solver", type=str, default=None)
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--sigma0", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--iters", type=int, default=None)
        sp.add_argument("--batch", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--stride", type=int, default=None)
        sp.add_argument("--barrier-weight", dest="barrier_weight", type=float, default=None)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        if name == "sweep":
            sp.add_argument(
                "--mus", type=str, default=None, help="comma-separated penalty values"
            )
    return p


def _merge_config(args) -> dict:
    cfg = {
        "problem": None,
        "solver": "diffusion",
        "batch": 1,
        "seed": 0,
        "threads": 1,
        "out": "out",
        "stride": 100,
        "mus": None,
    }
    if args.config is not None:
        with open(args.config) as f:
            file_cfg = json.load(f)
        unknown = set(file_cfg) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in _CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _solver_config(cfg: dict) -> SolverConfig:
    kwargs = {"seed": int(cfg["seed"]), "snapshot_stride": int(cfg["stride"])}
    for src, dst in (
        ("mu", "mu"),
        ("alpha", "alpha"),
        ("sigma0", "sigma0"),
        ("gamma", "gamma"),
        ("iters", "iterations"),
        ("hold", "hold"),
        ("barrier_weight", "barrier_weight"),
    ):
        if cfg.get(src) is not None:
            kwargs[dst] = cfg[src]
    return SolverConfig(**kwargs)


def _baseline_config(cfg: dict) -> BaselineConfig:
    kwargs = {"seed": int(cfg["seed"]), "snapshot_stride": int(cfg["stride"])}
    for src, dst in (
        ("mu", "mu"),
        ("alpha", "alpha"),
        ("iters", "iterations"),
        ("barrier_weight", "barrier_weight"),
    ):
        if cfg.get(src) is not None:
            kwargs[dst] = cfg[src]
    return BaselineConfig(**kwargs)


def _guesses(bundle, n, seed):
    # guess RNG is decoupled from the chains' noise streams
    return [bundle.guess(np.random.default_rng([int(seed) + i, 0xA5])) for i in range(n)]


def _apply_overrides(cfg: dict, bundle) -> dict:
    out = dict(cfg)
    for key, val in bundle.config_overrides.items():
        flag = {"iterations": "iters"}.get(key, key)
        if out.get(flag) is None:
            out[flag] = val
    return out


def _run_solver(bundle, cfg: dict, x0s):
    name = cfg["solver"]
    if name == "diffusion":
        sc = _solver_config(cfg)
        return solve_batch(bundle.nlp, x0s, sc, threads=int(cfg["threads"]))
    bc = _baseline_config(cfg)
    sols = []
    for i, x0 in enumerate(x0s):
        bc_i = BaselineConfig(**{**bc.__dict__, "seed": bc.seed + i})
        if name == "gd":
            sols.append(gradient_descent_cdo(bundle.nlp, x0, None, bc_i))
        else:
            sols.append(bfgs_penalty(bundle.nlp, x0, bc_i))
    return sols


def _validate(cfg: dict) -> str | None:
    if cfg["problem"] not in PROBLEMS:
        return f"unknown problem {cfg['problem']!r}; valid problems: {sorted(PROBLEMS)}"
    if cfg["solver"] not in SOLVERS:
        return f"unknown solver {cfg['solver']!r}; valid solvers: {list(SOLVERS)}"
    if int(cfg["batch"]) < 1:
        return "batch size must be at least 1"
    try:
        _check_seed(cfg["seed"])  # before the guesses are drawn from it
    except ValueError as exc:
        return str(exc)
    return None


def cmd_run(args) -> int:
    cfg = _merge_config(args)
    err = _validate(cfg)
    if err:
        print(err, file=sys.stderr)
        return 1
    bundle = get_problem(cfg["problem"])
    cfg = _apply_overrides(cfg, bundle)
    n = int(cfg["batch"])
    x0s = _guesses(bundle, n, cfg["seed"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sols = _run_solver(bundle, cfg, x0s)
    wall_ms = (time.perf_counter() - t0) * 1e3

    for i, sol in enumerate(sols):
        sol.trace.to_csv(out / f"trace_{i}.csv")
        sol.trace.snapshots_to_csv(out / f"snapshots_{i}.csv")
    summary = {
        "problem": cfg["problem"],
        "solver": cfg["solver"],
        "batch": n,
        "wall_ms": wall_ms,
        "timing_note": "wall-clock times are hardware-dependent and not an acceptance criterion",
        "chains": [sol.summary() for sol in sols],
    }
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
    if all(sol.success for sol in sols):
        return 0
    print("some chains failed; partial outputs retained", file=sys.stderr)
    return 2


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    err = _validate(cfg)
    if err:
        print(err, file=sys.stderr)
        return 1
    mus_raw = cfg.get("mus")
    if isinstance(mus_raw, str):
        mus = [float(v) for v in mus_raw.split(",") if v.strip()]
    elif mus_raw is not None:
        mus = [float(v) for v in mus_raw]
    else:
        mus = []
    if not mus:
        print("sweep requires a non-empty --mus list", file=sys.stderr)
        return 1
    bundle = get_problem(cfg["problem"])
    cfg = _apply_overrides(cfg, bundle)
    x0 = _guesses(bundle, 1, cfg["seed"])[0]  # shared across all mu values
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    rows = []
    finals = []
    status = 0
    for mu in mus:
        cfg_mu = {**cfg, "mu": mu}
        sols = _run_solver(bundle, cfg_mu, [x0])
        sol = sols[0]
        if not sol.success:
            status = 2
        for it, hsq in zip(sol.trace.iters, sol.trace.hsq):
            rows.append((mu, int(it), float(hsq)))
        finals.append({"mu": mu, **sol.summary()})
    wall_ms = (time.perf_counter() - t0) * 1e3

    with open(out / "sweep.csv", "w") as f:
        f.write("mu,iter,hsq\n")
        for mu, it, hsq in rows:
            f.write(f"{mu!r},{it},{hsq!r}\n")
    with open(out / "summary.json", "w") as f:
        json.dump(
            {
                "problem": cfg["problem"],
                "solver": cfg["solver"],
                "mus": mus,
                "wall_ms": wall_ms,
                "chains": finals,
            },
            f,
            indent=2,
        )
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_sweep(args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
