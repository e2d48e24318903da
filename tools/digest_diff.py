"""Compare the benchmark's per-seed trace digests of a base revision and the working tree.

    python3 tools/digest_diff.py BASE_REF [--allow-change WORKLOAD ...]

Runs ``bench/run.py --workload all --seed 0 --seconds 3`` in an export of
``BASE_REF``'s tree (``git archive``, into a temporary directory) and in the
working tree, one after the other, and prints per workload the seeds both
sides ran and those whose digests differ. Run it from anywhere inside the
repository.

Exit status: 0 when every common seed of every workload has equal digests,
1 when a digest differs (or a workload has no common seed) on a workload
not named by ``--allow-change``, 2 when a side's benchmark run fails. A
change that declares a behaviour change on a workload passes
``--allow-change`` with its name, so the declaration sits in the change's
own diff; its differing seeds are still printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCH_ARGS = ["bench/run.py", "--workload", "all", "--seed", "0", "--seconds", "3"]


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export(ref, root, dest, *paths):
    """Write the tree of ``ref`` into ``dest``: all of it, or only ``paths`` when given."""
    archive = Path(dest) / "tree.tar"
    archive.write_bytes(git("archive", "--format=tar", ref, *paths, cwd=root))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def digests(checkout, label):
    """``{workload: {seed: digest}}`` from one benchmark run in ``checkout``."""
    print(f"{label}: running {' '.join(BENCH_ARGS)} in {checkout}", file=sys.stderr, flush=True)
    out = subprocess.run([sys.executable, *BENCH_ARGS], cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{label}: bench/run.py exited with {out.returncode}")
    found = {}
    for line in out.stdout.splitlines():
        record = json.loads(line)
        if "digests" in record:
            found[record["workload"]] = record["digests"]
    return found


def compare(base, change, allowed):
    """Print each workload's common and differing seeds; return the names that fail."""
    failing = []
    for name in sorted(base.keys() | change.keys()):
        b, c = base.get(name, {}), change.get(name, {})
        common = sorted(b.keys() & c.keys(), key=int)
        differ = [s for s in common if b[s] != c[s]]
        note = " (change allowed)" if name in allowed else ""
        print(f"{name}: {len(common)} common seeds, {len(differ)} differ{note}")
        if differ:
            print(f"  differing seeds: {' '.join(differ)}")
        if (differ or not common) and name not in allowed:
            failing.append(name)
    return failing


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base_ref", metavar="BASE_REF", help="the revision to compare against")
    p.add_argument(
        "--allow-change",
        action="append",
        default=[],
        metavar="WORKLOAD",
        help="a workload whose digests this change declares it moves (repeatable)",
    )
    args = p.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    try:
        with tempfile.TemporaryDirectory(prefix="digest-diff-") as tmp:
            export(args.base_ref, root, tmp)
            base = digests(tmp, f"base {args.base_ref}")
        change = digests(root, "working tree")
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(e, file=sys.stderr)
        return 2
    failing = compare(base, change, set(args.allow_change))
    if failing:
        print(f"digests differ from {args.base_ref} on: {', '.join(failing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
