"""Temporal-graph data model and the elementary queries built on it."""

from __future__ import annotations

from dataclasses import dataclass


class TemporalGraphError(ValueError):
    """A malformed graph, edge, or out-of-range query argument."""


class TemporalGraph:
    """An undirected temporal graph on vertices 0..n-1.

    Time-edges are (u, v, t) triples with u < v and t >= 1; an edge active at
    several times is stored as one triple per activation, and time_edges
    holds them sorted by (t, u, v). The lifetime is the largest timestep
    present (0 for edgeless graphs). Instances are immutable after
    construction and safe to share between threads.
    """

    __slots__ = ("n", "time_edges", "lifetime", "_by_time")

    def __init__(self, n, time_edges=()):
        if type(n) is not int or n < 0:
            raise TemporalGraphError("vertex count must be a nonnegative integer")
        canon = []
        for edge in time_edges:
            try:
                u, v, t = edge
            except (TypeError, ValueError):
                raise TemporalGraphError(f"bad time-edge {edge!r}") from None
            if not type(u) is type(v) is type(t) is int:
                raise TemporalGraphError(f"non-integer entry in {edge!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise TemporalGraphError(f"vertex out of range in {edge!r}")
            if u == v:
                raise TemporalGraphError(f"self-loop {edge!r}")
            if t < 1:
                raise TemporalGraphError(f"timestep below 1 in {edge!r}")
            if u > v:
                u, v = v, u
            canon.append((t, u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                t, u, v = a
                raise TemporalGraphError(f"duplicate time-edge ({u}, {v}, {t})")
        self.n = n
        self.time_edges = tuple((u, v, t) for t, u, v in canon)
        self.lifetime = canon[-1][0] if canon else 0
        self._by_time = None

    def _time_index(self):
        if self._by_time is None:
            by_time = {}
            for u, v, t in self.time_edges:
                by_time.setdefault(t, []).append((u, v))
            self._by_time = {t: tuple(es) for t, es in by_time.items()}
        return self._by_time

    def edges_at(self, t):
        return self._time_index().get(t, ())

    def underlying_edges(self):
        return frozenset((u, v) for u, v, _ in self.time_edges)

    def __eq__(self, other):
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self.n == other.n and self.time_edges == other.time_edges

    def __hash__(self):
        return hash((self.n, self.time_edges))

    def __repr__(self):
        return f"TemporalGraph(n={self.n}, time_edges={list(self.time_edges)!r})"


class _built_once:
    """A read-only attribute computed on first read and stored in the
    instance __dict__ under its own name, where later reads find it without
    a call. functools.cached_property does the same, but on Python 3.11 it
    takes a lock on each instance's first read."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


@dataclass(frozen=True)
class ComponentGraph:
    """A timed view of one snapshot: sorted vertices and the snapshot's
    edges among them. The TIM engine's views are connected components;
    snapshot() gives the whole snapshot over its active vertices."""

    t: int
    vertices: tuple
    edges: tuple

    @_built_once
    def adjacency(self):
        """Vertex -> frozenset of neighbours, built once per view; an
        isolated vertex maps to the empty set."""
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @_built_once
    def index(self):
        """Vertex -> its position in the labelling tuples."""
        return {v: i for i, v in enumerate(self.vertices)}


@dataclass(frozen=True)
class StaticGraph:
    """A plain undirected graph used for prefix/suffix views."""

    n: int
    edges: frozenset

    def components(self):
        return _components(self.n, self.edges)


def _components(n, edges):
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    return _components_among(list(range(n)), range(n), edges)


def _edge_components(edges):
    """The components of the vertices the edges touch; a vertex with no edge
    belongs to none."""
    root = {}
    for u, v in edges:
        root[u], root[v] = u, v
    return _components_among(root, sorted(root), edges)


def _components_among(root, vertices, edges):
    """The vertices, given in increasing order, grouped by component as
    sorted tuples ordered by smallest member. The edges are merged into the
    union-find root first (see _merge); it may already hold earlier merges,
    so one root can carry a growing graph across calls."""
    _merge(root, edges)
    comps = {}
    for v in vertices:
        r = root[v]
        while root[r] != r:
            r = root[r]
        comps.setdefault(r, []).append(v)
    return [tuple(comp) for comp in comps.values()]


def _find(root, v):
    """v's root in the union-find root, halving the path on the way."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _merge(root, edges, weight=None):
    """Merge each edge's endpoints in the union-find root (vertex -> parent,
    each tree rooted at its smallest member). When weight is given, indexed
    like root, a root merged away adds its weight to the kept root's and is
    left at 0, and the call returns the largest weight a merge left on a
    kept root (0 when nothing merged)."""
    top = 0
    for u, v in edges:
        # _find, inlined: this loop runs for every edge of every snapshot
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        if u != v:
            if v < u:
                u, v = v, u
            root[v] = u
            if weight is not None:
                weight[u] += weight[v]
                weight[v] = 0
                if weight[u] > top:
                    top = weight[u]
    return top


def snapshot(g: TemporalGraph, t: int) -> ComponentGraph:
    """The snapshot of g at time t over its active vertices A_t, those with
    an edge at t. Time 0 is the synthetic empty snapshot."""
    if t < 0 or t > g.lifetime:
        raise TemporalGraphError(f"time {t} outside [0, {g.lifetime}]")
    edges = g.edges_at(t) if t >= 1 else ()
    return ComponentGraph(t, tuple(sorted({v for e in edges for v in e})), edges)


def component_graphs(t, comps, edges):
    """comps (disjoint sorted vertex tuples) as ComponentGraphs at time t,
    each holding the edges of `edges` that lie inside it."""
    home = {v: i for i, comp in enumerate(comps) if len(comp) > 1 for v in comp}
    inside = {}
    for e in edges:
        inside.setdefault(home[e[0]], []).append(e)
    return [ComponentGraph(t, comp, tuple(inside.get(i, ()))) for i, comp in enumerate(comps)]


def components_at(g: TemporalGraph, t: int):
    """Connected components of the snapshot at t, ordered by smallest member."""
    if t < 0 or t > g.lifetime:
        raise TemporalGraphError(f"time {t} outside [0, {g.lifetime}]")
    edges = g.edges_at(t) if t >= 1 else ()
    return component_graphs(t, _components(g.n, edges), edges)


def prefix_graph(g: TemporalGraph, t: int) -> StaticGraph:
    """Underlying graph of the time-edges active at or before t."""
    if t < 1 or t > g.lifetime:
        raise TemporalGraphError(f"time {t} outside [1, {g.lifetime}]")
    return StaticGraph(g.n, frozenset((u, v) for u, v, s in g.time_edges if s <= t))


def suffix_graph(g: TemporalGraph, t: int) -> StaticGraph:
    """Underlying graph of the time-edges active at or after t."""
    if t < 1 or t > g.lifetime:
        raise TemporalGraphError(f"time {t} outside [1, {g.lifetime}]")
    return StaticGraph(g.n, frozenset((u, v) for u, v, s in g.time_edges if s >= t))


def is_strict_temporal_path(g: TemporalGraph, seq) -> bool:
    """True iff seq is a strict temporal path of g.

    seq is a list of ((u, v), t) pairs. Consecutive edges must share an
    endpoint, times must strictly increase, and no vertex may repeat. Every
    entry must be a time-edge of g, otherwise TemporalGraphError is raised.
    """
    edge_set = set(g.time_edges)
    norm = []
    for item in seq:
        (u, v), t = item
        if u > v:
            u, v = v, u
        if (u, v, t) not in edge_set:
            raise TemporalGraphError(f"({u}, {v}, {t}) is not a time-edge of the graph")
        norm.append((u, v, t))
    if not norm:
        return True
    for (u1, v1, t1), (u2, v2, t2) in zip(norm, norm[1:]):
        if t2 <= t1:
            return False
        if not ({u1, v1} & {u2, v2}):
            return False
    if len(norm) == 1:
        return True
    # Orient the walk, then reject repeated vertices.
    first = set(norm[0][:2])
    second = set(norm[1][:2])
    if first == second:
        return False  # same edge twice always revisits both endpoints
    start = (first - second).pop() if first - second else None
    if start is None:
        return False
    visited = [start]
    cur = start
    for u, v, _ in norm:
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return False
        visited.append(cur)
    return len(set(visited)) == len(visited)


def shift_graph(g: TemporalGraph, first_kept_time: int) -> TemporalGraph:
    """Drop time-edges before first_kept_time and shift times so it becomes 1."""
    if first_kept_time < 1:
        raise TemporalGraphError("first kept time must be >= 1")
    shift = first_kept_time - 1
    return TemporalGraph(
        g.n, [(u, v, t - shift) for u, v, t in g.time_edges if t >= first_kept_time]
    )
