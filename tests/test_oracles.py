import random

from timwidth import core, oracles
from timwidth.core import TemporalGraph
from timwidth.oracles import (
    earliest_arrival,
    max_satisfiable_clauses,
    oracle_firefighter,
    oracle_firefighter_max,
    oracle_ham,
    oracle_matching,
    oracle_tred,
    reachable_set,
)

from .conftest import random_graph


def test_ham_basics():
    assert oracle_ham(TemporalGraph(1, []))
    assert oracle_ham(TemporalGraph(3, [(0, 1, 1), (1, 2, 2)]))
    assert not oracle_ham(TemporalGraph(3, [(0, 1, 2), (1, 2, 2)]))


def test_ham_budget():
    g = TemporalGraph(2, [(0, 1, 1)])
    assert oracle_ham(g, time_budget=5.0)


def test_matching_basics():
    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    assert oracle_matching(g, 2, 0)
    assert not oracle_matching(g, 2, 2)
    assert oracle_matching(g, 1, 2)


def test_matching_monotone_in_h(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=5, lam_max=3)
        delta = rng.randint(1, 3)
        prev = True
        for h in range(0, 4):
            cur = oracle_matching(g, delta, h)
            assert prev or not cur  # once false, stays false
            prev = cur


def test_tred_basics():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    assert oracle_tred(g, 0, 3, 0)
    assert not oracle_tred(g, 0, 1, 0)
    assert oracle_tred(g, 0, 1, 1)


def test_tred_monotone(rng):
    for _ in range(15):
        g = random_graph(rng, n_max=5, lam_max=3)
        s = rng.randrange(g.n)
        for r in range(1, g.n):
            for h in range(0, 2):
                if oracle_tred(g, s, r, h):
                    assert oracle_tred(g, s, r + 1, h)
                    assert oracle_tred(g, s, r, h + 1)


def test_reachability_matches_path_dfs(rng):
    # brute DFS over strictly increasing simple paths as the second opinion
    for _ in range(25):
        g = random_graph(rng, n_max=5, lam_max=4)
        src = rng.randrange(g.n)

        reached = {src}

        def dfs(v, last_t, seen):
            for u, w, t in g.time_edges:
                if t <= last_t:
                    continue
                nxt = None
                if u == v and w not in seen:
                    nxt = w
                elif w == v and u not in seen:
                    nxt = u
                if nxt is not None:
                    reached.add(nxt)
                    dfs(nxt, t, seen | {nxt})

        dfs(src, 0, {src})
        assert reachable_set(g, src) == reached
        assert set(earliest_arrival(g, src)) == reached


def test_firefighter_basics():
    g = TemporalGraph(4, [(1, 2, 1)])
    assert oracle_firefighter_max(g, 0) == 3  # isolated root
    star = TemporalGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert oracle_firefighter_max(star, 0) == 1
    assert oracle_firefighter(star, 0, 1)
    assert not oracle_firefighter(star, 0, 2)


def test_firefighter_monotone(rng):
    for _ in range(15):
        g = random_graph(rng, n_max=5, lam_max=3)
        root = rng.randrange(g.n)
        best = oracle_firefighter_max(g, root)
        for h in range(0, g.n + 1):
            assert oracle_firefighter(g, root, h) == (h <= best)


def test_max2sat_brute():
    assert max_satisfiable_clauses(2, [(1, 2)]) == 1
    assert max_satisfiable_clauses(1, []) == 0
    # x1 v x2, -x1 v x2, x1 v -x2, -x1 v -x2: any assignment satisfies 3
    clauses = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
    assert max_satisfiable_clauses(2, clauses) == 3


def test_oracle_components_equal_the_programs():
    # the oracles search components on their own; min_tim_width_exhaustive's
    # cache keys need the same canonical form as core._components
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(0, 12)
        edges = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
        ] if n else []
        assert oracles._components(n, edges) == core._components(n, edges), (n, edges)
    for _ in range(100):
        g = random_graph(rng, n_max=8, lam_max=4)
        for t in range(1, g.lifetime + 1):
            edges = g.edges_at(t)
            assert oracles._components(g.n, edges) == core._components(g.n, edges)
