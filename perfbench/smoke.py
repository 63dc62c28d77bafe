"""Smoke test of the benchmark itself; takes a few seconds.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that every answer
passes the referee, and that the referee rejects a deliberately wrong answer.
Exits nonzero on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import worker  # noqa: E402
import workloads as wl  # noqa: E402

# every workload at desk size: one round, the hard family at small n
wl.SCALING_SIZES = (8, 10, 12)
wl.POOL_ROUNDS = wl.TRACE_ROUNDS = dict.fromkeys(wl.WORKLOADS, 1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def run_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = worker.main(argv)
    lines = buf.getvalue().rstrip("\n").split("\n")
    return code, lines, json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAIL {message}")
    print(f"smoke: ok   {message}")


def check_metrics(result, lines, wanted, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{what}: prints exactly the {len(wanted)} metrics BENCHMARK.json names")
    text = "\n".join(lines)
    expect(all(f" {name} " in text for name in wanted), f"{what}: each metric has a named line")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: {result['attempted']} answers, all correct")


def wrong_answer_is_caught(workload):
    pool = wl.build(workload, 1, 1)
    case = pool[0][-1]
    answer = wl.solve(case)
    if case.problem == "widths":
        wrong = (0,) + answer[1:]  # a VIM width below the connected ones
    else:
        wrong = not answer
    good, bad = worker.Referee(workload), worker.Referee(workload)
    good.add(case, answer, None, "")
    bad.add(case, wrong, None, "")
    lines = bad.lines
    expect(good.failed == 0 and bad.failed == 1 and lines,
           f"{workload}: the referee rejects a wrong answer ({lines[0].splitlines()[0] if lines else '-'})")


def main():
    end_to_end, per_layer, workloads = spec()
    expect(tuple(workloads) == wl.WORKLOADS, "BENCHMARK.json lists the four workloads")
    for workload in workloads:
        code, lines, result = run_in_process(
            ["--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "0"])
        expect(code == 0, f"{workload}: untraced run exits 0")
        check_metrics(result, lines, end_to_end, f"{workload} untraced")
        code, lines, result = run_in_process(
            ["--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "1"])
        expect(code == 0, f"{workload}: traced run exits 0")
        check_metrics(result, lines, per_layer, f"{workload} traced")
        wrong_answer_is_caught(workload)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "widths", "--seed", "3",
         "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
           "run.py: one worker process, last stdout line is the result object")
    expect("PYTHONHASHSEED=0" in proc.stdout, "run.py: the worker's hash seed is pinned and printed")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
