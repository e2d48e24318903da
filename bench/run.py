"""Benchmark of langopt: one workload, measured for a fixed time.

    python3 bench/run.py --workload swingup --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads are ``swingup``, ``trap`` and ``kkt-cli`` (see ``workloads.py``);
``--workload all`` runs each in turn. The run repeats its workload's pipeline
on fresh seeded inputs until ``--seconds`` are used up (at least
``MIN_REPS`` times) and checks every chain's output.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
the pipeline's wall time and of chain-iterations per second of solve time,
the median of ``SETUP_PROBES`` fresh-process set-ups (all three timed at the
reference speed, see ``REF_UNIT_SECONDS``), the peak resident memory, and
quality over all chains. ``--trace 1`` alternates untraced and traced repetitions on
the same inputs and reports the per-layer metrics of ``tracer.py`` (raw
times) plus the traced-to-untraced wall-time ratio.

Every repetition's trace digest must equal the digest any earlier run in this
checkout recorded for the same code, inputs and numpy (kept in
``bench/.state/digests.json``), and a traced repetition's digest must equal
its untraced twin's: tracing must not change the numbers. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and the
digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("swingup", "trap", "kkt-cli")
SETUP_PROBES = 5
MIN_REPS = 3

# On a shared 2-core 2.0 GHz Xeon virtual machine the CPU speed switches
# between two levels about 1.6x apart and stays seconds to tens of seconds at
# each, so raw medians of 30-second runs of one workload spread by 24-38%
# (interquartile range over seeds), wider than any bound. Every end-to-end
# time is therefore reported at a reference speed: measured seconds *
# REF_UNIT_SECONDS / t_unit, where t_unit is the mean time of one unit of a
# fixed reference kernel sampled every SAMPLE_PERIOD seconds during the
# measurement (the samples' own time is not counted); a set-up probe, too
# short to sample, runs SETUP_REF_UNITS units right after it.
# REF_UNIT_SECONDS is the unit's time at the faster level on that machine.
REF_UNIT_SECONDS = 0.002
SAMPLE_PERIOD = 0.1
SETUP_REF_UNITS = 30

# Set-up as a user pays it: import langopt (and numpy), build the problem and
# the first inputs, in a fresh interpreter. Interpreter start-up is excluded.
SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]()
w.inputs(int(sys.argv[4]))
setup = perf_counter() - t0
import run
run.reference_seconds(run.SETUP_REF_UNITS)
print(setup * run.REF_UNIT_SECONDS * run.SETUP_REF_UNITS / run.reference_seconds(run.SETUP_REF_UNITS))
"""


_REF_BATCH = np.linspace(-1.0, 1.0, 64 * 152).reshape(64, 152)
_REF_RNG = np.random.default_rng(0)


def reference_seconds(units=1):
    """Time of a fixed kernel shaped like the workloads: a Python loop over
    small numpy steps, batched (64, 152) array arithmetic, and pure bytecode."""
    x = np.zeros(152)
    t0 = perf_counter()
    for _ in range(units):
        for _ in range(100):
            x = x - 0.005 * (np.sin(x) + 0.5 * x) + 0.01 * _REF_RNG.standard_normal(152)
        for _ in range(7):
            y = np.sin(_REF_BATCH) * 0.5 + _REF_BATCH
            np.sum(y * y, axis=-1)
        total = 0
        for i in range(6000):
            total += i * i % 7
    return perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed during a measurement.

    While ``running``, a SIGALRM handler times one reference unit every
    SAMPLE_PERIOD seconds. ``clock`` is ``perf_counter`` without the time the
    samples took, so measurements made with it exclude them.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self):
        return perf_counter() - self.spent

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_vars},
    }


def code_key():
    """Identifies the code and numeric stack that produced a digest."""
    h = hashlib.sha256(f"{sys.version}|{np.__version__}".encode())
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup_seconds(name, base):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(base)],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_rep(workload, base, sampler, tracer=None):
    """One checked repetition, timed on the sampler's clock."""
    from workloads import Rep

    rec = Rep(base=base, clock=sampler.clock)
    inputs = workload.inputs(base)
    first = len(sampler.samples)
    with tracer.installed() if tracer else contextlib.nullcontext():
        with sampler.running():
            t0 = sampler.clock()
            workload.run(rec, inputs, tracer)
            rec.wall_s = sampler.clock() - t0
        workload.check(rec, inputs)
    samples = sampler.samples[first:] or [reference_seconds()]
    rec.scale = REF_UNIT_SECONDS / statistics.fmean(samples)
    rec.phases.clear()  # keep peak memory independent of the repetition count
    return rec


class DigestStore:
    """Trace digests of earlier runs in this checkout, by code, workload and inputs."""

    path = BENCH / ".state" / "digests.json"

    def __init__(self, name):
        self.prefix = f"{code_key()}/{name}/"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.mismatches = []

    def check(self, rec, label):
        key = self.prefix + str(rec.base)
        seen = self.known.setdefault(key, rec.digest)
        if seen != rec.digest:
            self.mismatches.append(f"{label} repetition at seed {rec.base}: {rec.digest[:12]} != {seen[:12]}")

    def save(self):
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def measure(name, seed, seconds, traced):
    import workloads

    setup_s = None if traced else setup_seconds(name, seed * workloads.SEED_STRIDE)
    workload = workloads.WORKLOADS[name]()
    store = DigestStore(name)
    sampler = SpeedSampler()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(sampler.clock)
    plain, traced_reps = [], []
    t_start = perf_counter()
    reference_seconds()  # warm-up
    while True:
        base = seed * workloads.SEED_STRIDE + len(plain) * workload.chains
        rec = run_rep(workload, base, sampler)
        store.check(rec, "untraced")
        plain.append(rec)
        if tracer is not None:
            twin = run_rep(workload, base, sampler, tracer)
            store.check(twin, "traced")
            if twin.digest != rec.digest:
                store.mismatches.append(f"traced repetition at seed {base} differs from untraced")
            traced_reps.append(twin)
        elapsed = perf_counter() - t_start
        if len(plain) >= MIN_REPS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    store.save()

    reps = plain + traced_reps
    failed = sum(len(r.failures) for r in reps)
    attempted = workload.chains * len(reps)
    for r in reps:
        for j, why in sorted(r.failures.items()):
            print(f"chain {j} of repetition at seed {r.base} failed: {why}", file=sys.stderr)
    for m in store.mismatches:
        print(f"trace digest mismatch: {m}", file=sys.stderr)

    if traced:
        metrics = tracer.per_layer(traced_reps)
        ratio = statistics.median(
            (t.wall_s * t.scale) / (p.wall_s * p.scale) for t, p in zip(traced_reps, plain)
        )
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    else:
        hsq = [v for r in plain for v in r.hsq]
        cost = [v for r in plain for v in r.cost]
        on_target = [v for r in plain for v in r.on_target]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall_s * r.scale for r in plain), "s"),
            "chain_it_per_s": (statistics.median(r.chain_its / (r.solve_s * r.scale) for r in plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "hsq_p50": (statistics.median(hsq), "1"),
            "cost_p50": (statistics.median(cost), "1"),
            "success_rate": (sum(on_target) / len(on_target), "ratio"),
        }
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "repetitions": len(plain),
        "raw_wall_s": [r.wall_s for r in plain],
        "scale": [r.scale for r in plain],
        "machine": machine(),
        "digests": {str(r.base): r.digest for r in plain},
    }
    result = {
        "correct": failed == 0 and not store.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "langopt" / "__init__.py").is_file():
        print(f"no langopt sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        info, result = measure(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{name:8s} {metric:28s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
        print(f"{name:8s} failed/attempted chains: {result['failed']}/{result['attempted']}", file=sys.stderr)
        print(json.dumps(info))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
