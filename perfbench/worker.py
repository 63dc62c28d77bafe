"""One workload in one single-threaded process; started by run.py.

Set-up (import, generate, emit, parse, warm-up), then a closed loop that
solves one instance at a time until the given number of seconds of solving
have passed. After each stretch of solving the referee checks its answers
with the clock stopped, so answers need not be kept. The last line of
stdout is the JSON result.

Every time metric of an untraced run is host-speed normalised: a fixed
calibration loop runs before and after each stretch of at least SEGMENT_S
of measured work, and the stretch's times are scaled by CAL_REFERENCE_S
over the mean of those two calibrations. The raw times are printed too.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import timwidth  # noqa: E402
from timwidth.vim_engine import ResourceLimitError  # noqa: E402

import workloads as wl  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
RSS_IMPORT_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
SETUP_REPEATS = 3
# The virtual host this was built on changed speed by up to 2x, in states
# lasting from seconds to minutes, on identical work. Stretches short
# against that keep a stretch's speed close to its calibrations'.
SEGMENT_S = 0.1
CAL_REFERENCE_S = 0.002  # the calibration loop's time at reference speed

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_ms_largest": "ms",
    "scaling_slope": "1",
    "peak_rss_mb": "MB",
}


_CAL_FLOATS = [random.Random(0).random() for _ in range(3000)]


def _calibration_loop():
    """Fixed pure-Python work: tuple keys in a dict, a sort, grouping in lists.

    Of the loops tried, these two tracked the solvers' slowdowns best.
    """
    d = {}
    for i in range(4000):
        k = (i & 63, (i * 7) & 31)
        d[k] = d.get(k, 0) + 1
    groups = {}
    for i, x in enumerate(sorted(_CAL_FLOATS)):
        groups.setdefault(int(x * 64), []).append(i)
    return len(d) + len(groups)


def calibrate():
    """Seconds the fixed calibration loop takes now.

    The collector is off while it runs, so the size of the heap the program
    built does not enter the reading.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Scales measured seconds to seconds at reference speed."""

    def __init__(self):
        self.last = calibrate()
        self.factors = []

    def step(self):
        """Calibrate again; the factor for the work since the last calibration."""
        now = calibrate()
        factor = 2 * CAL_REFERENCE_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor

    def restart(self):
        """Calibrate before measured work that follows unmeasured work."""
        self.last = calibrate()


def set_up(workload, seed):
    """Median of several identical set-ups, plus the one-off import time.

    Each set-up drops the previous pool before building its own, so peak
    memory holds one pool. Returns the pool and the raw and normalised
    set-up times.
    """
    speed = HostSpeed()
    import_s = IMPORT_S * CAL_REFERENCE_S / speed.last
    raw, normalised = [], []
    for _ in range(SETUP_REPEATS):
        pool = None
        start = time.perf_counter()
        pool = wl.build(workload, seed, wl.POOL_ROUNDS[workload])
        wl.warm_up(workload)
        dt = time.perf_counter() - start
        raw.append(dt)
        normalised.append(dt * speed.step())
    return pool, IMPORT_S + statistics.median(raw), import_s + statistics.median(normalised)


def run_one(case):
    """(answer, error kind or None, detail) for one solve."""
    try:
        return wl.solve(case), None, ""
    except ResourceLimitError as exc:
        return None, "refused", str(exc)
    except Exception as exc:  # a crash on a generated instance is a result to report
        return None, "error", f"{type(exc).__name__}: {exc}"


class Referee:
    """Checks answers; each distinct case once, repeats against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}  # id(case) -> (comparable answer, problems)
        self.attempted = 0
        self.failed = 0
        self.lines = []
        self.seconds = 0.0

    def add(self, case, answer, err, detail):
        start = time.perf_counter()
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.lines.append(f"{err}: {case.label} n={case.n}: {detail}\n{case.text}")
        else:
            key = wl.comparable(case, answer)
            if id(case) not in self.first:
                problems = wl.check(case, answer, self.workload)
                self.first[id(case)] = (key, problems)
                if problems:
                    self.lines.append(f"wrong: {case.label} n={case.n}: {'; '.join(problems)}\n{case.text}")
            first, problems = self.first[id(case)]
            if problems or key != first:
                self.failed += 1
                if key != first:
                    self.lines.append(f"unstable: {case.label} n={case.n}: {first} then {key}")
        self.seconds += time.perf_counter() - start


def solve_rounds(pool, referee, seconds):
    """Solve round after round until `seconds` of raw solving time have passed.

    The round under way is finished. Each stretch of solving is normalised,
    then refereed with the clock stopped. Returns (n, raw, normalised
    latency) per solve, the number of solves in each round, the raw solving
    time and the host-speed factors.
    """
    clock = time.perf_counter
    speed = HostSpeed()
    latencies = []
    round_sizes = []
    stretch = []
    stretch_s = busy = 0.0

    def close_stretch():
        factor = speed.step()
        for case, out, dt in stretch:
            latencies.append((case.n, dt, dt * factor))
            referee.add(case, *out)
        stretch.clear()
        speed.restart()

    r = 0
    while busy < seconds:
        cases = pool[r % len(pool)]
        for case in cases:
            t0 = clock()
            out = run_one(case)
            dt = clock() - t0
            stretch.append((case, out, dt))
            stretch_s += dt
            busy += dt
            if stretch_s >= SEGMENT_S:
                close_stretch()
                stretch_s = 0.0
        round_sizes.append(len(cases))
        r += 1
    if stretch:
        close_stretch()
    return latencies, round_sizes, busy, speed.factors


def percentile(sorted_xs, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    pos = q * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def loglog_slope(points):
    """Least-squares slope of y against log n over (n, y) points."""
    xs = [math.log(n) for n, _ in points]
    ys = [y for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_metrics(latencies, round_sizes, setup_s):
    """The time metrics over (n, seconds) per solve, in solving order."""
    lat = sorted(dt for _, dt in latencies)
    by_n = {}
    for n, dt in latencies:
        by_n.setdefault(n, []).append(dt)
    # mean log latency per size: a geometric mean, which neither the cheap
    # mode (instances answered before any engine runs) nor the tail can swing
    log_means = sorted(
        (n, statistics.fmean(math.log(x) for x in xs)) for n, xs in by_n.items() if n >= 2
    )
    round_rates = []
    end = 0
    for size in round_sizes:
        round_rates.append(size / sum(dt for _, dt in latencies[end:end + size]))
        end += size
    return {
        "setup_s": setup_s,
        # every round has the same mix of sizes, so the median round's rate
        # is the throughput, untouched by a rare slow instance or stall
        "instances_per_s": statistics.median(round_rates),
        "latency_ms_p50": 1e3 * percentile(lat, 0.5),
        "latency_ms_p90": 1e3 * percentile(lat, 0.9),
        # a geometric mean: the largest size mixes problems whose latencies
        # form separate clusters, and a median can jump between them
        "latency_ms_largest": 1e3 * statistics.geometric_mean(by_n[max(by_n)]),
        "scaling_slope": loglog_slope(log_means),
    }


def end_to_end(latencies, round_sizes, busy, factors, setup_raw, setup_s):
    """Normalised time metrics and peak memory; raw times go in the extras."""
    metrics = time_metrics([(n, y) for n, _, y in latencies], round_sizes, setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = time_metrics([(n, x) for n, x, _ in latencies], round_sizes, setup_raw)
    sizes = sorted({n for n, _, _ in latencies})
    q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    extra = {
        "samples": len(latencies),
        "largest_n": sizes[-1],
        "largest_samples": sum(1 for n, _, _ in latencies if n == sizes[-1]),
        "sizes": sizes,
        "rounds": len(round_sizes),
        "solving_s": f"{busy:.3f}",
        "host_speed": f"factor quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f} over {len(factors)} stretches",
        "raw": " ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "scaling_slope"),
    }
    return metrics, extra


def report(workload, seed, referee, metrics, units, extra):
    out = sys.stdout
    out.write(f"workload {workload} seed {seed} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} "
              f"timwidth {timwidth.__version__}\n")
    extra["referee_s"] = f"{referee.seconds:.3f}"
    for k, v in extra.items():
        out.write(f"  {k}: {v}\n")
    for line in referee.lines[:20]:
        out.write("FAILED " + line.rstrip() + "\n")
    if len(referee.lines) > 20:
        out.write(f"FAILED ... {len(referee.lines) - 20} more\n")
    out.write(f"  {'failed_frac':42s} {referee.failed / referee.attempted:.6f} "
              f"({referee.failed}/{referee.attempted})\n")
    for name, value in metrics.items():
        out.write(f"  {name:42s} {value:.6g} {units[name]}\n")
    result = {
        "correct": referee.failed == 0,
        "attempted": referee.attempted,
        "failed": referee.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0 if referee.failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = args.workload

    if not args.trace:
        pool, setup_raw, setup_s = set_up(workload, args.seed)
        rss_setup = peak_rss_mb()
        referee = Referee(workload)
        latencies, round_sizes, busy, factors = solve_rounds(pool, referee, args.seconds)
        metrics, extra = end_to_end(latencies, round_sizes, busy, factors, setup_raw, setup_s)
        extra["peak_rss_mb"] = f"{RSS_IMPORT_MB:.1f} after import, {rss_setup:.1f} after set-up"
        return report(workload, args.seed, referee, metrics, END_TO_END, extra)

    from tracing import Tracer, per_layer_units

    tracer = Tracer()
    tracer.install()
    try:
        pool = wl.build(workload, args.seed, wl.TRACE_ROUNDS[workload])
    finally:
        tracer.uninstall()
    wl.warm_up(workload)
    referee = Referee(workload)
    clock = time.perf_counter
    untraced_s = traced_s = 0.0
    for case in (c for rnd in pool for c in rnd):
        # each instance untraced, then traced: the host's speed drifts over
        # seconds, and the two solves of a pair share one moment
        t0 = clock()
        run_one(case)
        untraced_s += clock() - t0
        tracer.install()
        try:
            span = tracer.open_instance(wl.root_span(case))
            t0 = clock()
            out = run_one(case)
            traced_s += clock() - t0
            tracer.close(span)
        finally:
            tracer.uninstall()
        referee.add(case, *out)
    metrics = tracer.layer_metrics()
    metrics["oracles.verify_s"] = referee.seconds
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.instances"] = referee.attempted
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    span_log = os.path.join(out_dir, f"spans-{workload}-{args.seed}.jsonl")
    tracer.write(span_log)
    extra = {"spans": len(tracer.spans), "span_log": os.path.relpath(span_log)}
    return report(workload, args.seed, referee, metrics, per_layer_units(), extra)


if __name__ == "__main__":
    sys.exit(main())
