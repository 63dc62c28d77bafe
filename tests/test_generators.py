import pytest

from timwidth.core import TemporalGraph
from timwidth.decomposition import tim_width
from timwidth.generators import (
    GeneratorError,
    gen_hard_ham_path,
    gen_ordered_tree,
    gen_random,
    ordered_tree_width_formula,
)
from timwidth.io import emit_graph_file
from timwidth.widths import connected_vim_width


def test_random_extremes():
    assert gen_random(5, 3, 0.0, seed=1).time_edges == ()
    g = gen_random(5, 3, 1.0, seed=1)
    assert g.underlying_edges() == frozenset(
        (u, v) for u in range(5) for v in range(u + 1, 5)
    )


def test_random_determinism():
    a = emit_graph_file(gen_random(8, 5, 0.4, max_times_per_edge=2, seed=99))
    b = emit_graph_file(gen_random(8, 5, 0.4, max_times_per_edge=2, seed=99))
    c = emit_graph_file(gen_random(8, 5, 0.4, max_times_per_edge=2, seed=100))
    assert a == b
    assert a != c


def test_ordered_tree_path_and_star():
    # a path with consecutive times has width 2
    path = TemporalGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    assert ordered_tree_width_formula(path) == 2
    assert tim_width(path) == 2
    star = TemporalGraph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
    assert ordered_tree_width_formula(star) == 2
    assert tim_width(star) == 2


def test_ordered_tree_satisfies_ordering():
    for seed in range(10):
        g = gen_ordered_tree(8, seed=seed, max_times_per_edge=2)
        # parent-incident edges strictly precede deeper subtree edges
        adj = {}
        for u, v, t in g.time_edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        depth = {0: 0}
        frontier = [0]
        parent = {0: None}
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt

        def subtree(v):
            out = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in adj.get(x, ()):
                    if parent.get(y) == x:
                        out.add(y)
                        stack.append(y)
            return out

        for v in range(g.n):
            incident = [t for a, b, t in g.time_edges if v in (a, b)]
            sub = subtree(v)
            deeper = [
                t
                for a, b, t in g.time_edges
                if a in sub and b in sub and v not in (a, b)
            ]
            if incident and deeper:
                assert max(incident) < min(deeper), (v, incident, deeper)


def test_ordered_tree_width_formula_holds():
    for seed in range(12):
        g = gen_ordered_tree(9, seed=seed, max_times_per_edge=3)
        expected = ordered_tree_width_formula(g)
        assert tim_width(g) == expected
        assert connected_vim_width(g, "ge").width == expected


def test_ordered_tree_budget_error():
    with pytest.raises(GeneratorError):
        gen_ordered_tree(10, seed=0, max_times_per_edge=3, time_budget=2)


def test_ordered_tree_refuses_empty_ranges():
    with pytest.raises(GeneratorError, match="max_times_per_edge must be >= 1"):
        gen_ordered_tree(5, seed=0, max_times_per_edge=0)
    with pytest.raises(GeneratorError, match="max_children must be >= 1"):
        gen_ordered_tree(5, seed=0, max_children=0)


def test_hard_family_shape():
    for n in (8, 20, 40):
        g = gen_hard_ham_path(n)
        assert g.n == n
        assert g.lifetime == n
        assert tim_width(g) == 2
        assert g.underlying_edges() == frozenset((i - 1, i) for i in range(1, n))


@pytest.mark.parametrize(
    "generate, message",
    [
        (lambda: gen_random(-1, 3, 0.5), "bad parameters"),
        (lambda: gen_random(4, -1, 0.5), "bad parameters"),
        (lambda: gen_random(4, 3, 1.5), "bad parameters"),
        (lambda: gen_random(4, 3, -0.1), "bad parameters"),
        (lambda: gen_random(4, 3, 0.5, max_times_per_edge=0), "max_times_per_edge must be >= 1"),
        (lambda: gen_ordered_tree(0), "need at least one vertex"),
        (lambda: gen_hard_ham_path(7), "family needs n >= 8"),
    ],
)
def test_generators_refuse_bad_parameters(generate, message):
    with pytest.raises(GeneratorError, match=f"^{message}$"):
        generate()
