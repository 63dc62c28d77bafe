import random

import pytest
from hypothesis import example, given, settings

from timwidth import widths
from timwidth.core import TemporalGraph, prefix_graph, snapshot, suffix_graph
from timwidth.decomposition import tim_width
from timwidth.generators import gen_ordered_tree, gen_random
from timwidth.widths import (
    bidirectional_cvim_width,
    connected_vim_width,
    vim_sequence,
)

from .conftest import random_graph, temporal_graphs


def test_vim_single_edge():
    g = TemporalGraph(2, [(0, 1, 3)])
    vs = vim_sequence(g)
    assert vs.bags[1] == frozenset() and vs.bags[2] == frozenset()
    assert vs.bags[3] == {0, 1}
    assert vs.width == 2


def test_vim_two_edges():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    vs = vim_sequence(g)
    assert vs.bags[1] == {0, 1}
    assert vs.bags[2] == {1, 2}
    assert vs.bags[0] == vs.bags[1]
    assert vs.width == 2


def test_vim_edgeless_convention():
    g = TemporalGraph(3, [])
    assert vim_sequence(g).width == 1


@settings(max_examples=80)
@given(temporal_graphs(n_max=8))
def test_vim_matches_interval_scan_oracle(g):
    vs = vim_sequence(g)
    spans = {}
    for u, v, t in g.time_edges:
        for x in (u, v):
            lo, hi = spans.get(x, (t, t))
            spans[x] = (min(lo, t), max(hi, t))
    for t in range(1, g.lifetime + 1):
        expected = frozenset(x for x, (lo, hi) in spans.items() if lo <= t <= hi)
        assert vs.bags[t] == expected
        assert vs.bags[t].issuperset(snapshot(g, t).vertices)


@settings(max_examples=80)
@given(temporal_graphs())
def test_vim_bags_are_intervals_per_vertex(g):
    vs = vim_sequence(g)
    for v in range(g.n):
        stamps = [t for t in range(1, g.lifetime + 1) if v in vs.bags[t]]
        assert stamps == list(range(stamps[0], stamps[-1] + 1)) if stamps else True


def test_cvim_single_edge():
    g = TemporalGraph(2, [(0, 1, 1)])
    assert connected_vim_width(g, "le").width == 2
    assert connected_vim_width(g, "ge").width == 2


def test_cvim_disjoint_pairs():
    g = TemporalGraph(4, [(0, 1, 1), (2, 3, 2)])
    res = connected_vim_width(g, "le")
    assert res.width == 2
    assert res.bags[2] == ((2, 3),)


@settings(max_examples=60)
@given(temporal_graphs())
def test_cvim_matches_direct_definition(g):
    vs = vim_sequence(g)
    for direction, graph_of in (("le", prefix_graph), ("ge", suffix_graph)):
        best = 1
        for t in range(1, g.lifetime + 1):
            for comp in graph_of(g, t).components():
                best = max(best, len(set(comp) & vs.bags[t]))
        assert connected_vim_width(g, direction).width == best


@settings(max_examples=60)
@given(temporal_graphs())
# at t=2 the prefix component {0, 3} meets F_2 in (3,) only, so that part sorts after (1, 2)
@example(TemporalGraph(5, [(0, 3, 1), (1, 2, 2), (3, 4, 3)]))
def test_cvim_bags_match_direct_definition(g):
    vs = vim_sequence(g)
    for direction, graph_of in (("le", prefix_graph), ("ge", suffix_graph)):
        bags = connected_vim_width(g, direction, vs).bags
        assert bags[0] == ()
        for t in range(1, g.lifetime + 1):
            parts = (tuple(sorted(set(c) & vs.bags[t])) for c in graph_of(g, t).components())
            assert bags[t] == tuple(sorted(p for p in parts if p))


def test_bidirectional_examples():
    g = TemporalGraph(2, [(0, 1, 1)])
    assert bidirectional_cvim_width(g) == 2
    assert bidirectional_cvim_width(TemporalGraph(3, [])) == 1


@settings(max_examples=50)
@given(temporal_graphs(n_max=4, lam_max=4))
def test_bidirectional_matches_split_oracle(g):
    # direct evaluation of the split decomposition per candidate time:
    # connected prefix bags before t, the bag F_t at t, connected suffix
    # bags after t, all against the graph's own VIM sequence
    lam = g.lifetime
    if lam == 0:
        assert bidirectional_cvim_width(g) == 1
        return
    vs = vim_sequence(g)

    def bag_at(graph_of, s):
        return max(
            (len(set(c) & vs.bags[s]) for c in graph_of(g, s).components()),
            default=0,
        )

    values = []
    for t in range(1, lam + 1):
        parts = [1]
        for s in range(1, t):
            parts.append(bag_at(prefix_graph, s))
        if 1 < t < lam:
            parts.append(len(vs.bags[t]))
        for s in range(t + 1, lam + 1):
            parts.append(bag_at(suffix_graph, s))
        if t == 1:
            parts.append(bag_at(suffix_graph, 1))
        if t == lam:
            parts.append(bag_at(prefix_graph, lam))
        values.append(max(parts))
    assert bidirectional_cvim_width(g) == min(values)


def derived_bidirectional(g):
    """The bidirectional width read off vim_sequence and both
    connected_vim_width results: the largest bag of each direction per
    timestep, then the three-case formula over every split time."""
    lam = g.lifetime
    if lam == 0:
        return 1
    vs = vim_sequence(g)
    le, ge = (
        [max(map(len, bags_t), default=0) for bags_t in connected_vim_width(g, d, vs).bags]
        for d in ("le", "ge")
    )
    prefix_le = [0] * (lam + 2)
    for t in range(1, lam + 1):
        prefix_le[t] = max(prefix_le[t - 1], le[t])
    suffix_ge = [0] * (lam + 2)
    for t in range(lam, 0, -1):
        suffix_ge[t] = max(suffix_ge[t + 1], ge[t])
    values = []
    for t in range(1, lam + 1):
        if t == 1:
            values.append(max(suffix_ge[1], 1))
        elif t == lam:
            values.append(max(prefix_le[lam], 1))
        else:
            values.append(max(prefix_le[t - 1], suffix_ge[t + 1], len(vs.bags[t]), 1))
    return min(values)


def sweep_graphs():
    """Graphs shaped like the widths benchmark's pool, ordered trees, and
    sparse long-lived graphs whose vertices leave F_t mid-sweep."""
    rng = random.Random(4242)
    for _ in range(4):
        for n in range(1, 13):
            for _ in range(4):
                lam = rng.randint(1, 10)
                p = rng.choice((0.1, 0.25, 0.4, 0.6))
                yield gen_random(n, lam, p, max_times_per_edge=2, seed=rng.randrange(1 << 30))
        for n in range(2, 13):
            yield gen_ordered_tree(n, seed=rng.randrange(1 << 30), max_times_per_edge=rng.randint(1, 3))
    for _ in range(150):
        yield random_graph(rng, n_max=10, lam_max=40, p=0.2, max_times=3)


def test_bidirectional_sweep_matches_connected_results():
    left_mid_sweep = 0
    for g in sweep_graphs():
        assert bidirectional_cvim_width(g) == derived_bidirectional(g), g
        vs = vim_sequence(g)
        if any(vs.bags[t] - vs.bags[t + 1] for t in range(1, g.lifetime)):
            left_mid_sweep += 1
    assert left_mid_sweep > 100


def test_bidirectional_reads_neither_sequence_nor_connected_results(monkeypatch):
    graphs = [g for g, _ in zip(sweep_graphs(), range(60))]
    want = [derived_bidirectional(g) for g in graphs]

    def refuse(*args):
        raise AssertionError("bidirectional_cvim_width called a width function")

    monkeypatch.setattr(widths, "vim_sequence", refuse)
    monkeypatch.setattr(widths, "connected_vim_width", refuse)
    assert [bidirectional_cvim_width(g) for g in graphs] == want


@pytest.mark.parametrize(
    "other",
    [
        # another lifetime: the bags run out before the graph's times
        TemporalGraph(4, [(0, 1, 1), (2, 3, 1), (0, 3, 2)]),
        # the same lifetime and vertex count, other bags
        TemporalGraph(3, [(0, 2, 1), (0, 1, 2), (1, 2, 3)]),
    ],
)
def test_connected_width_refuses_another_graphs_sequence(other):
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 3)])
    for direction in ("le", "ge"):
        with pytest.raises(ValueError, match="another graph"):
            connected_vim_width(g, direction, vim_sequence(other))
        # an equal graph built separately is the same graph
        same = TemporalGraph(3, [(1, 2, 3), (0, 1, 1)])
        assert connected_vim_width(g, direction, vim_sequence(same)) == connected_vim_width(g, direction)


@settings(max_examples=80)
@given(temporal_graphs())
def test_width_ordering_chain(g):
    om = vim_sequence(g).width
    le = connected_vim_width(g, "le").width
    ge = connected_vim_width(g, "ge").width
    bi = bidirectional_cvim_width(g)
    tw = tim_width(g)
    assert le <= om and ge <= om
    assert tw <= min(le, ge)
    assert tw <= bi


@pytest.mark.parametrize("direction", ["lt", "both", ""])
def test_connected_width_refuses_an_unknown_direction(direction):
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 3)])
    with pytest.raises(ValueError, match="^direction must be 'le' or 'ge'$"):
        connected_vim_width(g, direction)
