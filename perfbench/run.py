"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs in a fresh single-threaded Python process (worker.py)
with PYTHONHASHSEED pinned, importing timwidth from src/ of the checkout
this file sits in. One process runs at a time. The last line of stdout is
one JSON object: the worker's result for one workload, or for "all" the
results keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("widths", "solve-vim", "solve-tim", "ham-scaling")
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170


def run_worker(workload, args):
    """Run one workload to completion; returns (exit code, result or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=SRC,
    )
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"{workload}: worker ran past {WORKER_TIMEOUT_S}s and was stopped\n")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
        body = lines[:-1]
    except (json.JSONDecodeError, IndexError):
        body = lines
    for line in body:
        print(line)
    return proc.returncode, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "timwidth", "__init__.py")):
        sys.stderr.write(f"no timwidth sources under {SRC}; run from a checkout of the repository\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for name in names:
        code, result = run_worker(name, args)
        if result is None:
            sys.stderr.write(f"{name}: worker exited {code} without a result\n")
            return code or 1
        results[name] = result
        status = status or code
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return status


if __name__ == "__main__":
    sys.exit(main())
