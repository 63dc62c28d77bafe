"""Temporal-graph data model and the elementary queries built on it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class TemporalGraphError(ValueError):
    """A malformed graph, edge, or out-of-range query argument."""


class TemporalGraph:
    """An undirected temporal graph on vertices 0..n-1.

    Time-edges are (u, v, t) triples with u < v and t >= 1; an edge active at
    several times is stored as one triple per activation. The lifetime is the
    largest timestep present (0 for edgeless graphs). Instances are immutable
    after construction and safe to share between threads.
    """

    __slots__ = ("n", "time_edges", "lifetime", "_by_time")

    def __init__(self, n, time_edges=()):
        if not isinstance(n, int) or n < 0:
            raise TemporalGraphError("vertex count must be a nonnegative integer")
        canon = []
        for edge in time_edges:
            try:
                u, v, t = edge
            except (TypeError, ValueError):
                raise TemporalGraphError(f"bad time-edge {edge!r}") from None
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

    @classmethod
    def _raw(cls, n, canonical_edges):
        # internal fast path: edges must already be validated, (u < v),
        # sorted by (t, u, v), and duplicate-free
        g = cls.__new__(cls)
        g.n = n
        g.time_edges = canonical_edges
        g.lifetime = canonical_edges[-1][2] if canonical_edges else 0
        g._by_time = None
        return g

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

    def vertices(self):
        return range(self.n)

    def __eq__(self, other):
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self.n == other.n and self.time_edges == other.time_edges

    def __hash__(self):
        return hash((self.n, self.time_edges))

    def __repr__(self):
        return f"TemporalGraph(n={self.n}, time_edges={list(self.time_edges)!r})"


@dataclass(frozen=True)
class Snapshot:
    """The static graph of edges active at one timestep, over all n vertices."""

    n: int
    t: int
    edges: tuple

    def active_vertices(self):
        out = set()
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return frozenset(out)

    @cached_property
    def _edge_set(self):
        return frozenset(self.edges)

    def has_edge(self, u, v):
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def adjacency(self):
        adj = {}
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj


@dataclass(frozen=True)
class ComponentGraph:
    """One timed connected component with its snapshot edges."""

    t: int
    vertices: tuple
    edges: tuple

    @cached_property
    def adjacency(self):
        """Vertex -> frozenset of neighbours, built once per component."""
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
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
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comp.sort()
        out.append(tuple(comp))
    return out


def snapshot(g: TemporalGraph, t: int) -> Snapshot:
    """The snapshot of g at time t. Time 0 is the synthetic empty snapshot."""
    if t < 0 or t > g.lifetime:
        raise TemporalGraphError(f"time {t} outside [0, {g.lifetime}]")
    return Snapshot(g.n, t, g.edges_at(t) if t >= 1 else ())


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
