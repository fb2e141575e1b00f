#!/usr/bin/env python3
"""Build the arvis benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds `perfbench/` (its own Cargo package) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. The binary prints
a table, a record line and, last, the one-line JSON result; this script
forwards its standard output and exit code. Traces, records and the
cross-run digests go to `<target dir>/perfbench/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workloads BENCHMARK.json lists, then goldens_replay, which runs by name
# only (see README.md).
WORKLOADS = ["fleet_uncoupled", "fleet_contended", "frame_pipeline", "goldens_replay"]
SKIP_DIRS = {"target", "__pycache__"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def bench_digest():
    """SHA-256 over the benchmark's own sources. With the workload, seed,
    sizes and the program's CODE_VERSION it keys the stored digests, so a
    changed benchmark never compares with an older one, while a changed
    program that keeps its CODE_VERSION must reproduce its parent's."""
    h = hashlib.sha256()
    for base, dirs, names in os.walk(HERE):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for n in sorted(names):
            f = os.path.join(base, n)
            rel = os.path.relpath(f, HERE)
            if rel == "Cargo.lock" or n.endswith(".pyc"):
                continue
            h.update(rel.encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def commit_id():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args()

    for needed in ["crates/core/Cargo.toml", "scenarios", "results/ledger.json"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 1

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "arvis-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out-dir", os.path.join(target, "perfbench"),
           "--commit", commit_id(), "--bench-sha256", bench_digest(),
           "--nproc", str(os.cpu_count() or 1)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(out.replace("\n{\"correct\"", "\n# {\"correct\""))
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
