import random

import pytest

from timwidth.core import _components
from timwidth.decomposition import tim_width
from timwidth.oracles import max_satisfiable_clauses, oracle_firefighter_max
from timwidth.problems import (
    CnfError,
    TwoCnf,
    gen_firefighter_hardness,
    hardness_target,
)
from timwidth.widths import connected_vim_width

FIG_FORMULA = TwoCnf(3, ((1, 2), (-2, 3), (-1, -3)))


def test_vertex_count_matches_formula():
    inst = gen_firefighter_hardness(FIG_FORMULA, 0)
    v, w = 3, 3
    assert inst.graph.n == 1 + 2 * v + 2 * w * v + 4 * w == 37


def test_target_formula():
    assert hardness_target(FIG_FORMULA, 2) == 3 + 18 + 9 + 2 == 32
    inst = gen_firefighter_hardness(FIG_FORMULA, 2)
    assert inst.saves_target == 32


def test_structure_constraints():
    inst = gen_firefighter_hardness(FIG_FORMULA, 1)
    g = inst.graph
    # each edge active exactly once
    assert len({(u, v) for u, v, _ in g.time_edges}) == len(g.time_edges)
    # at most two edges per timestep
    per_time = {}
    for _, _, t in g.time_edges:
        per_time[t] = per_time.get(t, 0) + 1
    assert max(per_time.values()) <= 2
    # underlying graph is a tree of depth two from the root
    assert len(g.underlying_edges()) == g.n - 1
    comps = _components(g.n, g.underlying_edges())
    assert len(comps) == 1
    dist = {0: 0}
    frontier = [0]
    adj = {}
    for u, v in g.underlying_edges():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    assert max(dist.values()) == 2


def test_widths_bounded_by_three():
    inst = gen_firefighter_hardness(FIG_FORMULA, 1)
    assert tim_width(inst.graph) <= 3
    assert connected_vim_width(inst.graph, "ge").width <= 3


def test_rejects_malformed_clauses():
    with pytest.raises(CnfError):
        TwoCnf(2, ((1, 1),))
    with pytest.raises(CnfError):
        TwoCnf(2, ((1, 3),))
    with pytest.raises(CnfError):
        TwoCnf(2, ((1,),))


def test_reduction_round_trip_small():
    rng = random.Random(42)
    for _ in range(6):
        v = rng.randint(2, 3)
        w = rng.randint(1, 3)
        clauses = []
        for _ in range(w):
            a, b = rng.sample(range(1, v + 1), 2)
            clauses.append(
                (a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b)
            )
        cnf = TwoCnf(v, tuple(clauses))
        best_sat = max_satisfiable_clauses(v, cnf.clauses)
        inst = gen_firefighter_hardness(cnf, 0)
        best_saved = oracle_firefighter_max(inst.graph, inst.root)
        for k in range(0, w + 1):
            assert (best_sat >= k) == (
                best_saved >= hardness_target(cnf, k)
            ), (cnf, k, best_sat, best_saved)


@pytest.mark.parametrize("k", [-1, 3])
def test_hardness_refuses_k_outside_the_clause_count(k):
    cnf = TwoCnf(2, ((1, 2), (-1, 2)))
    with pytest.raises(CnfError, match="^k must lie between 0 and the clause count$"):
        gen_firefighter_hardness(cnf, k)
