#!/usr/bin/env python3
"""Build the preimage benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload allsat-dense --seed 7 --seconds 10 --trace 0

The last line of standard output is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "pbench.exe")
OUT = ".perfbench"
# The whole run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def source_digest():
    """A stand-in revision for checkouts that are not git repositories."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def revision():
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return source_digest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bin/pbench.exe"],
            stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    nproc = len(os.sched_getaffinity(0))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--nproc", str(nproc), "--commit", revision()]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
