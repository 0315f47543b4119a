#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the `ormcheck` server and
the benchmark client (`perfbench/main.ml`) with dune, then runs the client,
which starts `ormcheck serve --listen http:...` as a child process, drives
it, checks every answer and prints one JSON result object as the last line
of standard output.  Exits non-zero without a result when the checkout
cannot be built or the run fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # the whole command must end within 180 s after the build
BUILD_LIMIT_S = 840


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a source checkout", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ormcheck.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    build_s = time.monotonic() - t0

    work = os.path.join(root, ".perfbench-work",
                        "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(work), exist_ok=True)
    cmd = [
        os.path.join(root, "_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--exe", os.path.join(root, "_build", "default", "bin", "ormcheck.exe"),
        "--work", work,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # the client and the server it started share one process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    finally:
        # stop whatever the client left behind (a server after a crash)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        for name in os.listdir(work) if os.path.isdir(work) else []:
            if name.startswith("registry"):
                shutil.rmtree(os.path.join(work, name), ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(out)
        print("perfbench: no result (client exit %d)" % proc.returncode, file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stdout.write(out)
        print("perfbench: client exit %d" % proc.returncode, file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"build_s": round(build_s, 3)}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
