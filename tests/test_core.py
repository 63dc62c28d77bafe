import pytest
from hypothesis import given, settings

from timwidth.core import (
    TemporalGraph,
    TemporalGraphError,
    components_at,
    is_strict_temporal_path,
    prefix_graph,
    shift_graph,
    snapshot,
    suffix_graph,
)

from .conftest import temporal_graphs


def test_construction_canonicalises():
    g = TemporalGraph(3, [(2, 1, 3), (0, 1, 1)])
    assert g.time_edges == ((0, 1, 1), (1, 2, 3))
    assert g.lifetime == 3


def test_construction_rejects_bad_edges():
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 0, 1)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 1, 0)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 2, 1)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 1, 1), (1, 0, 1)])


def test_snapshot_single_edge():
    g = TemporalGraph(2, [(0, 1, 3)])
    assert snapshot(g, 3).edges == ((0, 1),)
    assert snapshot(g, 1).edges == ()
    assert snapshot(g, 0).edges == ()
    with pytest.raises(TemporalGraphError):
        snapshot(g, 4)


@settings(max_examples=60)
@given(temporal_graphs())
def test_snapshot_union_partitions_edges(g):
    # brute-force re-partition of the time-edge multiset
    collected = []
    for t in range(1, g.lifetime + 1):
        for u, v in snapshot(g, t).edges:
            collected.append((u, v, t))
    assert sorted(collected) == sorted(g.time_edges)


def test_components_examples():
    g = TemporalGraph(4, [(0, 1, 1), (2, 3, 1)])
    assert [c.vertices for c in components_at(g, 1)] == [(0, 1), (2, 3)]
    assert [c.edges for c in components_at(g, 1)] == [((0, 1),), ((2, 3),)]
    g2 = TemporalGraph(3, [(0, 1, 2)])
    assert [c.vertices for c in components_at(g2, 1)] == [(0,), (1,), (2,)]


@settings(max_examples=60)
@given(temporal_graphs())
def test_components_match_union_find_oracle(g):
    for t in range(0, g.lifetime + 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in snapshot(g, t).edges:
            parent[find(u)] = find(v)
        groups = {}
        for v in range(g.n):
            groups.setdefault(find(v), []).append(v)
        expected = sorted(tuple(sorted(vs)) for vs in groups.values())
        got = sorted(c.vertices for c in components_at(g, t))
        assert got == expected
        # partition property
        flat = [v for c in components_at(g, t) for v in c.vertices]
        assert sorted(flat) == list(range(g.n))


def test_prefix_suffix_examples():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 3)])
    assert prefix_graph(g, 2).edges == frozenset({(0, 1)})
    assert suffix_graph(g, 2).edges == frozenset({(1, 2)})
    assert prefix_graph(g, 3).edges == g.underlying_edges()
    assert suffix_graph(g, 1).edges == g.underlying_edges()
    with pytest.raises(TemporalGraphError):
        prefix_graph(g, 0)
    with pytest.raises(TemporalGraphError):
        suffix_graph(g, 4)


@settings(max_examples=60)
@given(temporal_graphs())
def test_prefix_suffix_match_filter_oracle(g):
    for t in range(1, g.lifetime + 1):
        assert prefix_graph(g, t).edges == frozenset(
            (u, v) for u, v, s in g.time_edges if s <= t
        )
        assert suffix_graph(g, t).edges == frozenset(
            (u, v) for u, v, s in g.time_edges if s >= t
        )


def test_strict_path_examples():
    g = TemporalGraph(3, [(0, 1, 1), (0, 1, 2), (1, 2, 2), (0, 2, 3)])
    assert is_strict_temporal_path(g, [((0, 1), 1), ((1, 2), 2)])
    assert not is_strict_temporal_path(g, [((0, 1), 2), ((1, 2), 2)])
    assert not is_strict_temporal_path(
        g, [((0, 1), 1), ((1, 2), 2), ((2, 0), 3)]
    )
    assert is_strict_temporal_path(g, [])
    with pytest.raises(TemporalGraphError):
        is_strict_temporal_path(g, [((0, 2), 1)])


def test_strict_path_rejects_plateau_and_edge_reuse():
    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    assert not is_strict_temporal_path(g, [((0, 1), 1), ((0, 1), 2)])


def test_shift_graph():
    g = TemporalGraph(3, [(0, 1, 2), (1, 2, 4)])
    s = shift_graph(g, 2)
    assert s.time_edges == ((0, 1, 1), (1, 2, 3))
    assert shift_graph(g, 3).time_edges == ((1, 2, 2),)
