"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from itertools import combinations

import pytest

from timwidth.core import TemporalGraph
from timwidth.decomposition import compute_tim_decomposition, tim_width, validate_decomposition
from timwidth.generators import (
    gen_hard_ham_path,
    gen_ordered_tree,
    gen_random,
    ordered_tree_width_formula,
)
from timwidth.oracles import (
    OracleBudgetExceeded,
    max_satisfiable_clauses,
    min_tim_width_exhaustive,
    oracle_firefighter_max,
    oracle_ham,
    oracle_matching,
    oracle_tred,
)
from timwidth.problems import (
    FirefighterInstance,
    MatchingInstance,
    TredInstance,
    TwoCnf,
    gen_firefighter_hardness,
    hardness_target,
    normalize_firefighter,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from timwidth.problems.firefighter import FirefighterTimPlugin, FirefighterVimPlugin
from timwidth.problems.hamiltonian import HamiltonianVimPlugin
from timwidth.problems.matching import MatchingTimPlugin
from timwidth.problems.reachability import TredTimPlugin
from timwidth.widths import connected_vim_width, vim_sequence, bidirectional_cvim_width


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _random_instance_graph(rng, n_lo, n_hi, lam_hi, p=0.35):
    n = rng.randint(n_lo, n_hi)
    lam = rng.randint(1, lam_hi)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                count = rng.randint(1, min(2, lam))
                for t in rng.sample(range(1, lam + 1), count):
                    edges.append((u, v, t))
    return TemporalGraph(n, edges)


def test_criterion_1_decomposition_validity():
    rng = random.Random(101)
    graphs = []
    for _ in range(1000):
        n = rng.randint(1, 10)
        lam = rng.randint(1, 8)
        graphs.append(gen_random(n, lam, rng.uniform(0.1, 0.6),
                                 max_times_per_edge=2, seed=rng.randrange(1 << 30)))
    start = time.perf_counter()
    failures = 0
    for g in graphs:
        d = compute_tim_decomposition(g)
        report = validate_decomposition(g, d)
        if not report.ok or d.node_count() > g.n * g.lifetime:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        failures == 0 and elapsed < 5.0,
        f"1000 random decompositions valid ({failures} failures) in {elapsed:.2f}s < 5s",
    )


def _all_graphs_up_to(n_max, lam_max):
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        slots = [(u, v, t) for t in range(1, lam_max + 1) for (u, v) in pairs]
        for mask in range(1 << len(slots)):
            edges = tuple(
                sorted(
                    (slots[i] for i in range(len(slots)) if mask >> i & 1),
                    key=lambda e: (e[2], e[0], e[1]),
                )
            )
            yield TemporalGraph(n, edges)


@pytest.fixture(scope="module")
def exhaustive_sweep():
    order_bad = 0
    minimal_bad = 0
    count = 0
    for g in _all_graphs_up_to(4, 3):
        count += 1
        vs = vim_sequence(g)
        le = connected_vim_width(g, "le", vs).width
        ge = connected_vim_width(g, "ge", vs).width
        bi = bidirectional_cvim_width(g)
        tw = tim_width(g)
        if not (tw <= min(le, ge) and tw <= bi and le <= vs.width and ge <= vs.width):
            order_bad += 1
        if tw != min_tim_width_exhaustive(g):
            minimal_bad += 1
    return {"count": count, "order_bad": order_bad, "minimal_bad": minimal_bad}


def test_criterion_2_width_ordering(exhaustive_sweep):
    rng = random.Random(202)
    sample_bad = 0
    for _ in range(1000):
        g = _random_instance_graph(rng, 1, 10, 8, p=rng.uniform(0.1, 0.5))
        vs = vim_sequence(g)
        le = connected_vim_width(g, "le", vs).width
        ge = connected_vim_width(g, "ge", vs).width
        bi = bidirectional_cvim_width(g)
        tw = tim_width(g)
        if not (tw <= min(le, ge) and tw <= bi and le <= vs.width and ge <= vs.width):
            sample_bad += 1
    ok = exhaustive_sweep["order_bad"] == 0 and sample_bad == 0
    _report(
        2,
        ok,
        "width ordering holds on {} exhaustive graphs (n<=4, L<=3) and 1000 samples "
        "({} + {} violations)".format(
            exhaustive_sweep["count"], exhaustive_sweep["order_bad"], sample_bad
        ),
    )


def test_criterion_3_minimality_oracle(exhaustive_sweep):
    _report(
        3,
        exhaustive_sweep["minimal_bad"] == 0,
        "computed TIM width equals enumerated minimum on all {} graphs "
        "({} mismatches)".format(
            exhaustive_sweep["count"], exhaustive_sweep["minimal_bad"]
        ),
    )


@pytest.fixture(scope="module")
def engine_suites():
    suites = {}

    rng = random.Random(404)
    ham = []
    for _ in range(200):
        g = _random_instance_graph(rng, 3, 7, 5)
        expected = oracle_ham(g)
        vim_ans, vim_result = solve_hamiltonian(g, "vim")
        tim_ans, tim_result = solve_hamiltonian(g, "tim")
        ham.append(
            {
                "graph": g,
                "oracle": expected,
                "vim": vim_ans,
                "tim": tim_ans,
                "vim_result": vim_result,
                "tim_result": tim_result,
            }
        )
    suites["ham"] = ham

    rng = random.Random(505)
    ff = []
    for _ in range(200):
        g = _random_instance_graph(rng, 3, 6, 4)
        root = rng.randrange(g.n)
        h = rng.randint(0, g.n)
        inst = FirefighterInstance(g, root, h)
        expected = oracle_firefighter_max(g, root) >= h
        vim_ans, vim_result = solve_firefighter(inst, "vim")
        tim_ans, tim_result = solve_firefighter(inst, "tim")
        ff.append(
            {
                "instance": inst,
                "oracle": expected,
                "vim": vim_ans,
                "tim": tim_ans,
                "vim_result": vim_result,
                "tim_result": tim_result,
            }
        )
    suites["ff"] = ff

    rng = random.Random(606)
    matching = []
    for _ in range(200):
        g = _random_instance_graph(rng, 3, 7, 5)
        inst = MatchingInstance(g, rng.randint(1, 3), rng.randint(0, 3))
        expected = oracle_matching(g, inst.delta, inst.size_target)
        ans, result = solve_matching(inst)
        matching.append(
            {"instance": inst, "oracle": expected, "tim": ans, "tim_result": result}
        )
    suites["matching"] = matching

    rng = random.Random(707)
    tred = []
    for _ in range(200):
        g = _random_instance_graph(rng, 3, 7, 5)
        inst = TredInstance(g, rng.randrange(g.n), rng.randint(1, g.n), rng.randint(0, 3))
        expected = oracle_tred(g, inst.source, inst.max_reached, inst.max_deletions)
        ans, result = solve_tred(inst)
        tred.append(
            {"instance": inst, "oracle": expected, "tim": ans, "tim_result": result}
        )
    suites["tred"] = tred

    return suites


def test_criterion_4_engine_oracle_agreement(engine_suites):
    checks = {
        "ham-vim": all(e["vim"] == e["oracle"] for e in engine_suites["ham"]),
        "ham-tim": all(e["tim"] == e["oracle"] for e in engine_suites["ham"]),
        "ff-vim": all(e["vim"] == e["oracle"] for e in engine_suites["ff"]),
        "ff-tim": all(e["tim"] == e["oracle"] for e in engine_suites["ff"]),
        "matching-tim": all(e["tim"] == e["oracle"] for e in engine_suites["matching"]),
        "tred-tim": all(e["tim"] == e["oracle"] for e in engine_suites["tred"]),
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report(
        4,
        not bad,
        "six plugin/engine pairs agree with oracles on 200 instances each"
        + (f" (failing: {bad})" if bad else ""),
    )


def test_criterion_5_cross_engine_agreement(engine_suites):
    mismatches = sum(1 for e in engine_suites["ham"] if e["vim"] != e["tim"])
    _report(
        5,
        mismatches == 0,
        f"ham-vim and ham-tim agree on all 200 instances ({mismatches} mismatches)",
    )


def _vim_bound_ok(result, labels, k, b):
    bound = (2 * b + 1) ** k * labels ** result.omega
    return all(size <= bound for size in result.table_sizes)


def _tim_bound_ok(result, labels, k, b):
    phi = result.phi
    bound = (
        labels ** (3 * phi * phi)
        * (2 * b + 1) ** (3 * k * phi * phi)
        * (2 * result.lifetime * result.n * b + 1) ** k
    )
    return all(c <= bound for c in result.profile_counts.values())


def test_criterion_6_table_size_bounds(engine_suites):
    # one result per engine; None where the solver answered before any engine
    violations = 0

    for entry in engine_suites["ham"]:
        vim, tim = entry["vim_result"], entry["tim_result"]
        labels = len(HamiltonianVimPlugin.labels)
        if vim is not None and not _vim_bound_ok(vim, labels, 1, vim.n):
            violations += 1
        if tim is not None and not _tim_bound_ok(tim, 3, 1, 1):
            violations += 1

    for entry in engine_suites["ff"]:
        vim, tim = entry["vim_result"], entry["tim_result"]
        if vim is None and tim is None:
            continue
        norm = normalize_firefighter(entry["instance"])
        if vim is not None:
            if not _vim_bound_ok(vim, 3, 2, FirefighterVimPlugin(norm).counter_bound):
                violations += 1
        if tim is not None:
            ff_t = FirefighterTimPlugin(norm)
            if not _tim_bound_ok(tim, 4, len(ff_t.v_upper), ff_t.counter_bound):
                violations += 1

    for entry in engine_suites["matching"]:
        match_t = MatchingTimPlugin(entry["instance"])
        tim = entry["tim_result"]
        labels = len(match_t.labels)
        if tim is not None and not _tim_bound_ok(tim, labels, 1, match_t.counter_bound):
            violations += 1

    for entry in engine_suites["tred"]:
        tred_t = TredTimPlugin(entry["instance"])
        tim = entry["tim_result"]
        if tim is not None and not _tim_bound_ok(tim, 3, 2, tred_t.counter_bound):
            violations += 1

    _report(
        6,
        violations == 0,
        f"per-timestep and per-bag table sizes within the width bounds "
        f"({violations} violations)",
    )


def test_criterion_7_hardness_round_trip():
    # NOTE: the quoted equivalence is not a theorem of the constructed
    # instances. The reserve budget can be banked across the idle clause
    # steps that doubly-satisfied clauses produce, letting a strategy save
    # both clause leaves of an unsatisfied clause; the first sampled formula
    # that triggers this is reported in the failure detail. The structural
    # sub-claims (tree shape, widths <= 3, edge multiplicities) hold
    # throughout. See the decisions ledger for the full analysis.
    rng = random.Random(808)
    bad_equiv = 0
    bad_struct = 0
    first_counterexample = None
    for _ in range(100):
        v = rng.randint(2, 4)
        w = rng.randint(1, 5)
        clauses = []
        for _ in range(w):
            a, b = rng.sample(range(1, v + 1), 2)
            clauses.append(
                (a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b)
            )
        cnf = TwoCnf(v, tuple(clauses))
        inst = gen_firefighter_hardness(cnf, 0)
        g = inst.graph

        best_sat = max_satisfiable_clauses(v, cnf.clauses)
        best_saved = oracle_firefighter_max(g, inst.root)
        for k in range(0, w + 1):
            if (best_sat >= k) != (best_saved >= hardness_target(cnf, k)):
                bad_equiv += 1
                if first_counterexample is None:
                    first_counterexample = (cnf.clauses, k, best_sat, best_saved)

        per_time = {}
        for _, _, t in g.time_edges:
            per_time[t] = per_time.get(t, 0) + 1
        depth_ok = True
        adj = {}
        for a, b in g.underlying_edges():
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) != g.n or max(dist.values()) > 2:
            depth_ok = False
        structure_ok = (
            tim_width(g) <= 3
            and connected_vim_width(g, "ge").width <= 3
            and len(g.underlying_edges()) == g.n - 1
            and len({(u, v) for u, v, _ in g.time_edges}) == len(g.time_edges)
            and max(per_time.values()) <= 2
            and depth_ok
        )
        if not structure_ok:
            bad_struct += 1
    detail = (
        f"Max-2-SAT reduction round-trips on 100 formulas "
        f"({bad_equiv} equivalence, {bad_struct} structure violations)"
    )
    if first_counterexample:
        clauses, k, sat, saved = first_counterexample
        detail += (
            f"; counterexample: clauses={clauses}, max-sat={sat} < k={k} yet "
            f"{saved} vertices saveable (= target): budget banked over "
            f"doubly-satisfied clause steps defends both leaves of an "
            f"unsatisfied clause, which the quoted theorem's counting misses"
        )
    _report(7, bad_equiv == 0 and bad_struct == 0, detail)


def test_criterion_8_ordered_tree_width_formula():
    rng = random.Random(909)
    bad = 0
    for i in range(100):
        n = rng.randint(2, 12)
        g = gen_ordered_tree(
            n, seed=rng.randrange(1 << 30), max_times_per_edge=rng.randint(1, 3)
        )
        expected = ordered_tree_width_formula(g)
        if tim_width(g) != expected or connected_vim_width(g, "ge").width != expected:
            bad += 1
    _report(8, bad == 0, f"ordered-tree width formula exact on 100 instances ({bad} misses)")


def test_criterion_9_fpt_scaling():
    times = {}
    widths_ok = True
    for n in (20, 40, 80, 160):
        g = gen_hard_ham_path(n)
        if tim_width(g) != 2 or g.lifetime != n:
            widths_ok = False
        start = time.perf_counter()
        answer, _ = solve_hamiltonian(g, "tim")
        times[n] = max(time.perf_counter() - start, 1e-4)
        assert answer is False

    xs = [math.log(n) for n in sorted(times)]
    ys = [math.log(times[n]) for n in sorted(times)]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )

    oracle_timed_out = False
    try:
        oracle_ham(gen_hard_ham_path(40), time_budget=10.0)
    except OracleBudgetExceeded:
        oracle_timed_out = True

    ok = widths_ok and slope <= 3.5 and oracle_timed_out
    _report(
        9,
        ok,
        "tim engine scales with log-log slope {:.2f} <= 3.5 on width-2 paths "
        "(times {}); oracle exceeded 10s at n=40: {}".format(
            slope,
            {n: f"{t:.3f}s" for n, t in times.items()},
            oracle_timed_out,
        ),
    )
