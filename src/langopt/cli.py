"""Command-line front end: run single/batch solves and penalty sweeps, write CSV/JSON.

Every key in ``KEYS`` can be given as a flag (``_`` spelled ``-``) or in a
JSON file (``--config``); explicit flags win over the file. The
diffusion solver runs the problem's schedule (``ProblemBundle.phases``): a
key that names a config field sets that field in every phase, and ``seed``
is added to each phase's seed. ``seed`` also seeds the initial guesses,
which is all it does for the baselines (gd, bfgs): they draw no noise.
``summary.json`` holds the phases run (``phases``, with ``mu`` as given
for ``run``; a sweep's chain runs them at its own ``mu``), and each
chain's record holds the phase it ended in (``config``) and the seed of
its guess (``guess_seed``: ``seed + i`` for chain i of ``run``, ``seed``
for every chain of ``sweep``). So ``bundle.guesses(1, guess_seed)`` and
the phases rebuild any chain: chain i of ``run`` runs each phase at its
seed plus i, chain i of ``sweep`` runs them as recorded at ``mus[i]``.
Outputs:

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
from dataclasses import asdict, fields, replace
from pathlib import Path

from .baselines import _noise_free, bfgs_penalty
from .problems import PROBLEMS, get_problem
from .solver import SolverConfig, _check_int, solve_batch

SOLVERS = ("diffusion", "gd", "bfgs")

# key -> (flag type, the config field it sets, or None for a key read by the front end)
KEYS = {
    "problem": (str, None),
    "solver": (str, None),
    "mu": (float, "mu"),
    "alpha": (float, "alpha"),
    "sigma0": (float, "sigma0"),
    "gamma": (float, "gamma"),
    "iters": (int, "iterations"),
    "hold": (int, "hold"),
    "batch": (int, None),  # run only: a sweep runs one chain per mu
    "seed": (int, None),
    "threads": (int, None),
    "out": (str, None),
    "stride": (int, "snapshot_stride"),
    "barrier_weight": (float, "barrier_weight"),
    "mus": (str, None),  # sweep only: comma-separated penalty values
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}
_DEFAULTS = {"solver": "diffusion", "batch": 1, "seed": 0, "threads": 1, "out": "out"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="langopt",
        description="Equality-constrained Langevin diffusion trajectory optimizer",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "solve a problem"), ("sweep", "penalty-parameter sweep")):
        sp = sub.add_parser(name, help=help_)
        for key, (type_, _) in KEYS.items():
            if key != "mus" or name == "sweep":
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=type_)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
    return p


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        with open(args.config) as f:
            file_cfg = json.load(f)
        unknown = set(file_cfg) - set(KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({key: _file_value(key, v) for key, v in file_cfg.items()})
    for key in KEYS:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _is_a(type_, v) -> bool:
    """Whether a JSON value has a flag type; a bool is no number and a float no integer."""
    if type_ is str:
        return isinstance(v, str)
    if isinstance(v, bool):
        return False
    return isinstance(v, int) if type_ is int else isinstance(v, (int, float))


def _file_value(key, v):
    """A config-file value, rejected with the key's name unless it has the key's flag type."""
    type_ = KEYS[key][0]
    if key == "mus":  # a file may also list the penalties
        if not (_is_a(str, v) or isinstance(v, list) and all(_is_a(float, mu) for mu in v)):
            raise ValueError(f"config key 'mus' must be a string or a list of numbers, got {v!r}")
    elif not _is_a(type_, v):
        raise ValueError(f"config key {key!r} must be {_TYPE_NAMES[type_]}, got {v!r}")
    return v


def _mus(raw) -> list:
    """The sweep's penalty values: a comma-separated string, or a file's list of numbers."""
    if isinstance(raw, list):
        return [float(v) for v in raw]
    try:
        return [float(v) for v in (raw or "").split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"mus must be comma-separated numbers, got {raw!r}") from None


def _with_keys(config, cfg: dict):
    """``config`` with every set key that names one of its fields applied."""
    names = {f.name for f in fields(config)}
    kwargs = {
        f: cfg[key] for key, (_, f) in KEYS.items() if f in names and cfg.get(key) is not None
    }
    return replace(config, **kwargs)


def _configs(bundle, cfg: dict, mus=None):
    """The configs run (the bundle's schedule, or one noise-free config) and the sweep's schedules.

    The diffusion phases' seeds are offset by ``seed``; the baselines run
    ``SolverConfig()`` with the keys applied and the noise zeroed. With
    ``mus`` (a sweep), chain j runs at penalty ``mus[j]``; without, the
    schedules are None and every chain runs the configs. Building them
    checks every config value, so a bad one raises before any output exists.
    """
    if cfg["solver"] == "diffusion":
        phases = [replace(_with_keys(p, cfg), seed=p.seed + cfg["seed"]) for p in bundle.phases]
    else:
        phases = [_noise_free(_with_keys(SolverConfig(), cfg))]
    return phases, None if mus is None else [[replace(p, mu=mu) for p in phases] for mu in mus]


def _run_solver(bundle, cfg: dict, x0s, phases, scheds=None):
    """Each chain's Solution: chain j runs ``scheds[j]``, or ``phases`` when ``scheds`` is None.

    Diffusion and gd run as one batch, bfgs chain by chain.
    """
    if cfg["solver"] != "bfgs":
        return solve_batch(bundle.nlp, x0s, phases if scheds is None else scheds, threads=cfg["threads"])
    # bfgs runs one phase: the noise-free config
    configs = phases * len(x0s) if scheds is None else [s[0] for s in scheds]
    return [bfgs_penalty(bundle.nlp, x0, c) for x0, c in zip(x0s, configs)]


def _validate(cfg: dict, sweep: bool) -> list | None:
    """Reject a bad key, naming it; returns the sweep's penalty values (None for ``run``)."""
    if cfg.get("problem") not in PROBLEMS:
        raise ValueError(f"unknown problem {cfg.get('problem')!r}; valid problems: {sorted(PROBLEMS)}")
    if cfg["solver"] not in SOLVERS:
        raise ValueError(f"unknown solver {cfg['solver']!r}; valid solvers: {list(SOLVERS)}")
    if int(cfg["batch"]) < 1:
        raise ValueError("batch size must be at least 1")
    _check_int("threads", cfg["threads"], 1)  # bfgs never reaches solve_batch's own check
    if not sweep:
        if cfg.get("mus") is not None:
            raise ValueError("mus is a sweep key; run takes one mu (use --mu or the 'mu' key)")
        return None
    mus = _mus(cfg.get("mus"))
    if not mus:
        raise ValueError("sweep requires a non-empty --mus list")
    if int(cfg["batch"]) != 1:
        raise ValueError(f"sweep runs one chain per mu; batch must be 1, got {cfg['batch']}")
    return mus


def cmd(args) -> int:
    """Run command ``args.command`` (``run`` or ``sweep``), write its outputs and return the exit code.

    The code is 0 when every chain completed, else 2, said on stderr once
    the outputs are written.
    """
    cfg = _merge_config(args)
    mus = _validate(cfg, args.command == "sweep")
    bundle = get_problem(cfg["problem"])
    if mus is None:
        x0s = bundle.guesses(cfg["batch"], cfg["seed"])
    else:
        x0s = bundle.guesses(1, cfg["seed"]) * len(mus)  # one guess shared across all mu values
    phases, scheds = _configs(bundle, cfg, mus)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sols = _run_solver(bundle, cfg, x0s, phases, scheds)
    wall_ms = (time.perf_counter() - t0) * 1e3

    if mus is None:
        for i, sol in enumerate(sols):
            sol.trace.to_csv(out / f"trace_{i}.csv")
            sol.trace.snapshots_to_csv(out / f"snapshots_{i}.csv")
        keys = {
            "batch": len(sols),
            "phases": [asdict(c) for c in phases],
            "wall_ms": wall_ms,
            "timing_note": "wall-clock times are hardware-dependent and not an acceptance criterion",
            "chains": [{"guess_seed": cfg["seed"] + i, **sol.summary()} for i, sol in enumerate(sols)],
        }
    else:
        for sol in sols:  # no sweep.csv unless every trace is whole
            sol.trace._check_lengths(("iters", "hsq"))
        with open(out / "sweep.csv", "w") as f:
            f.write("mu,iter,hsq\n")
            for mu, sol in zip(mus, sols):
                sol.trace._write_rows(f, ("iters", "hsq"), repr(mu))
        keys = {
            "mus": mus,
            "phases": [asdict(c) for c in phases],
            "wall_ms": wall_ms,
            "chains": [{"mu": mu, "guess_seed": cfg["seed"], **sol.summary()} for mu, sol in zip(mus, sols)],
        }
    with open(out / "summary.json", "w") as f:
        json.dump({"problem": cfg["problem"], "solver": cfg["solver"], **keys}, f, indent=2)
    if all(sol.success for sol in sols):
        return 0
    print("some chains failed; partial outputs retained", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag, but 2 here means a chain failed
        return 1 if exc.code else 0
    try:
        return cmd(args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
