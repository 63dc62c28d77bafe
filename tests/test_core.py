import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timwidth import core
from timwidth.core import (
    ComponentGraph,
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


@settings(max_examples=60)
@given(temporal_graphs(), st.randoms(use_true_random=False))
def test_time_edges_sorted_by_time_then_endpoints(g, rnd):
    # emit_graph_file and vim_sequence rely on this order
    given_edges = [(v, u, t) if rnd.random() < 0.5 else (u, v, t) for u, v, t in g.time_edges]
    rnd.shuffle(given_edges)
    h = TemporalGraph(g.n, given_edges)
    assert h.time_edges == g.time_edges
    assert list(h.time_edges) == sorted(h.time_edges, key=lambda e: (e[2], e[0], e[1]))


def test_construction_rejects_bad_edges():
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 0, 1)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 1, 0)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 2, 1)])
    with pytest.raises(TemporalGraphError):
        TemporalGraph(2, [(0, 1, 1), (1, 0, 1)])


def test_construction_rejects_non_integers():
    # a float time once gave lifetime 1.5, and strings and None a bare
    # TypeError; True is an int to isinstance but not a vertex or a time
    for edge in ((0, 1, 1.5), (0, 1, "2"), (0, 1, None), (0, 1, True), (0.0, 1, 1), (0, True, 1)):
        with pytest.raises(TemporalGraphError, match="non-integer"):
            TemporalGraph(2, [edge])
    for n in (True, 2.0, "2", None):
        with pytest.raises(TemporalGraphError):
            TemporalGraph(n, [])


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


def test_adjacency_entries():
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 1)])
    assert snapshot(g, 1).adjacency == {0: {1}, 1: {0, 2}, 2: {1}}
    assert [c.adjacency for c in components_at(g, 1)] == [{0: {1}, 1: {0, 2}, 2: {1}}, {3: set()}]


def test_view_builds_adjacency_and_index_once(monkeypatch):
    # each is built on first read and then read from the view; neither
    # enters eq, hash or repr, which compare and print the fields only
    built = []
    for name in ("adjacency", "index"):
        attr = vars(core.ComponentGraph)[name]
        monkeypatch.setattr(attr, "build", lambda view, b=attr.build, n=name: built.append(n) or b(view))
    view = ComponentGraph(2, (0, 1, 3), ((0, 1), (1, 3)))
    twin = ComponentGraph(2, (0, 1, 3), ((0, 1), (1, 3)))
    before = (hash(view), repr(view))
    for _ in range(3):
        assert view.adjacency == {0: {1}, 1: {0, 3}, 3: {1}}
        assert view.index == {0: 0, 1: 1, 3: 2}
    assert built == ["adjacency", "index"]
    assert view == twin and (hash(view), repr(view)) == before == (hash(twin), repr(twin))
    assert "adjacency" not in repr(view) and "index" not in repr(view)
    with pytest.raises(AttributeError):
        view.t = 3


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


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda g: shift_graph(g, 0), "first kept time must be >= 1"),
        (lambda g: components_at(g, g.lifetime + 1), "time 3 outside [0, 2]"),
        (lambda g: components_at(g, -1), "time -1 outside [0, 2]"),
        (lambda g: TemporalGraph(3, [(0, 1)]), "bad time-edge (0, 1)"),
    ],
)
def test_core_refusals(refuse, message):
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(TemporalGraphError) as err:
        refuse(g)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "seq, verdict",
    [
        # consecutive edges that share no endpoint
        ([((0, 1), 1), ((2, 3), 2)], False),
        ([((1, 0), 2)], True),
        # {0, 1}, {1, 2}, {1, 3}: the walk stands at 2 when {1, 3} comes
        ([((0, 1), 1), ((1, 2), 2), ((1, 3), 3)], False),
    ],
)
def test_strict_temporal_path_verdicts(seq, verdict):
    g = TemporalGraph(4, [(0, 1, 1), (0, 1, 2), (1, 2, 2), (2, 3, 2), (1, 3, 3)])
    assert is_strict_temporal_path(g, seq) is verdict
