"""Benchmark suites writing fixed-schema CSV rows.

Columns: instance-id, n, lifetime, vim, tim, problem, engine, answer,
micros, peak-table-entries.
"""

from __future__ import annotations

import csv
import time

from .decomposition import tim_width
from .generators import gen_hard_ham_path, gen_random
from .problems import (
    FirefighterInstance,
    MatchingInstance,
    TredInstance,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from .widths import vim_sequence

CSV_COLUMNS = (
    "instance_id",
    "n",
    "lifetime",
    "vim",
    "tim",
    "problem",
    "engine",
    "answer",
    "micros",
    "peak_table_entries",
)


def table_peak(runs):
    """(bags, peak) over engine results: the most tables one run kept
    (VIM timesteps or TIM bags) and the largest table of any run."""
    bags = peak = 0
    for r in runs:
        if hasattr(r, "table_sizes"):
            count, sizes = len(r.table_sizes), r.table_sizes
        else:
            count, sizes = r.bag_count, r.profile_counts.values()
        bags = max(bags, count)
        peak = max(peak, max(sizes, default=0))
    return bags, peak


def _row(instance_id, g, problem, engine, solver):
    start = time.perf_counter()
    answer, runs = solver()
    micros = int((time.perf_counter() - start) * 1e6)
    return {
        "instance_id": instance_id,
        "n": g.n,
        "lifetime": g.lifetime,
        "vim": vim_sequence(g).width,
        "tim": tim_width(g),
        "problem": problem,
        "engine": engine,
        "answer": "yes" if answer else "no",
        "micros": micros,
        "peak_table_entries": table_peak(runs)[1],
    }


def run_suite(name, seed=0):
    rows = []
    if name == "quick":
        for i in range(8):
            g = gen_random(6, 4, 0.35, max_times_per_edge=2, seed=seed + i)
            rows.append(_row(f"quick-{i}", g, "temporal-hamiltonian-path", "vim",
                             lambda g=g: solve_hamiltonian(g, "vim")))
            rows.append(_row(f"quick-{i}", g, "temporal-hamiltonian-path", "tim",
                             lambda g=g: solve_hamiltonian(g, "tim")))
            ff = FirefighterInstance(g, 0, 2)
            if any(0 in (u, v) for u, v, _ in g.time_edges):
                rows.append(_row(f"quick-{i}", g, "temporal-firefighter", "vim",
                                 lambda ff=ff: solve_firefighter(ff, "vim")))
            rows.append(_row(f"quick-{i}", g, "delta-temporal-matching", "tim",
                             lambda g=g: solve_matching(MatchingInstance(g, 2, 2))))
            rows.append(_row(f"quick-{i}", g, "temporal-reachability-edge-deletion", "tim",
                             lambda g=g: solve_tred(TredInstance(g, 0, max(1, g.n // 2), 2))))
    elif name == "scaling":
        for n in (20, 40, 80, 160, 320, 640):
            g = gen_hard_ham_path(n)
            rows.append(_row(f"scaling-{n}", g, "temporal-hamiltonian-path", "tim",
                             lambda g=g: solve_hamiltonian(g, "tim")))
            if n <= 320:  # VIM's work on this family grows about as n^2
                rows.append(_row(f"scaling-{n}", g, "temporal-hamiltonian-path", "vim",
                                 lambda g=g: solve_hamiltonian(g, "vim")))
    else:
        raise ValueError(f"unknown suite {name!r}; choose quick or scaling")
    return rows


def write_csv(rows, stream):
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
