#!/usr/bin/env python3
"""Build the mrvcc benchmark from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (perfbench/mrvbench.ml) is built with dune's
release profile and the shared dune cache off, so the build reads and
writes only inside the checkout.  Its standard output is passed through;
its last line is one JSON object with the keys "correct", "attempted",
"failed" and "metrics".
Everything else the run writes goes to .perfbench/ at the checkout root.
Exits non-zero, without a result line, when the checkout has no
repository to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "mrvbench.exe")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["compile_paper15", "simulate_paper15", "execute_paper15", "proggen_flow"]
RUN_TIMEOUT_S = 175


def build():
    """Build the benchmark program; return an error message or None."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return "no repository to build at %s (dune-project and lib/ missing)" % ROOT
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "./perfbench/mrvbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        return "dune build failed: %s" % e
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        return "dune build exited with %d" % proc.returncode
    return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = ap.parse_known_args(argv)
    err = build()
    if err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE] + extra
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
