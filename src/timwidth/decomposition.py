"""Minimum TIM decompositions: construction, validation, rooting."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import TemporalGraph, _built_once, _edge_components, _find
from .widths import vim_sequence


@dataclass(frozen=True)
class TimDecomposition:
    """A time-labelled bag forest for a temporal graph.

    bags[i] is a frozenset of vertices, times[i] its timestep, arcs the
    directed (i, j) pairs between intersecting bags at consecutive times.
    For connected underlying graphs the forest is a single tree.

    When ends is not empty, node i holds bags[i] at every timestep from
    times[i] to ends[i], and its arcs meet the nodes at times[i] - 1 and
    ends[i] + 1. A node with ends[i] > times[i] is an interval node: the idle
    singleton bags of one vertex over a run of timesteps. Only
    interval_decomposition returns that form; io and
    compute_tim_decomposition use one node per bag, and
    validate_decomposition accepts both.
    """

    n: int
    lifetime: int
    bags: tuple
    times: tuple
    arcs: tuple
    ends: tuple = ()

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0)

    def node_count(self):
        """The number of bags, one per timestep of an interval node."""
        if not self.ends:
            return len(self.bags)
        return sum(e - t + 1 for t, e in zip(self.times, self.ends))


@dataclass(frozen=True)
class Violation:
    condition: str
    message: str
    witness: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Violation | None


class _BagState:
    """Mutable bag forest during cycle elimination.

    core holds the live ids of the forest's 2-core as the search starts,
    interval nodes expanded (empty outside the search). Every cycle lies in
    it and no merge touches a node outside it; merge drops the merged-away
    id. A merge can leave some of it on no cycle, so it holds the current
    2-core and perhaps more, which is all the forced merges, find_cycle and
    _minimise's memo need.
    """

    __slots__ = ("bags", "times", "adj", "ends", "core")

    def __init__(self, bags, times, adj, ends, core=()):
        self.bags = bags  # id -> set of vertices (live ids only)
        self.times = times  # id -> timestep (an interval node's first)
        self.adj = adj  # id -> set of neighbour ids
        self.ends = ends  # interval node id -> its last timestep
        self.core = set(core)

    def clone(self):
        # no merge touches an interval node, so the clones share ends
        return _BagState(
            {i: set(b) for i, b in self.bags.items()},
            dict(self.times),
            {i: set(ns) for i, ns in self.adj.items()},
            self.ends,
            self.core,
        )

    def expand(self, i, n):
        """Replace interval node i by one node per timestep, ids i + k*n;
        return the new ids."""
        last = self.ends.pop(i)
        t = self.times[i]
        later = [nb for nb in self.adj[i] if self.times[nb] > t]
        self.adj[i].difference_update(later)
        prev = i
        for s in range(t + 1, last + 1):
            j = prev + n
            self.bags[j], self.times[j], self.adj[j] = set(self.bags[i]), s, {prev}
            self.adj[prev].add(j)
            prev = j
        for nb in later:
            self.adj[nb].remove(i)
            self.adj[nb].add(prev)
            self.adj[prev].add(nb)
        return range(i + n, prev + 1, n)

    def merge(self, keep, other):
        """Merges node other into node keep; keep must be the smaller id."""
        self.bags[keep] |= self.bags.pop(other)
        for nb in list(self.adj[other]):
            self.adj[nb].discard(other)
            if nb != keep:
                self.adj[nb].add(keep)
                self.adj[keep].add(nb)
        self.adj[keep].discard(other)
        del self.adj[other]
        del self.times[other]
        self.core.discard(other)

    def width(self):
        return max((len(b) for b in self.bags.values()), default=0)

    def find_cycle(self):
        """The first cycle that a depth-first search of the 2-core meets,
        started at its smallest id and taking neighbours in id order; None
        when the core holds no cycle. Each 2-core node has two neighbours in
        it, so the search never backtracks: it steps to the smallest
        neighbour it did not come from until it reaches a node it has
        visited."""
        core = _two_core(self.adj, self.core)
        if not core:
            return None
        node, prev, index, path = min(core), None, {}, []
        while node not in index:
            index[node] = len(path)
            path.append(node)
            node, prev = min(x for x in self.adj[node] if x in core and x != prev), node
        return path[index[node]:]


def _forced_merges(state):
    """Apply every forced merge, until none is left.

    If two same-time neighbours of a node w are connected through nodes at
    strictly earlier times (or strictly later, symmetrically), any tree whose
    bags contain the current ones must identify them: removing the image of
    w from a tree separates its neighbours, and the connecting path cannot
    pass through the image of w because every node on it has a different
    timestep. Any other merge keeps w next to both and keeps the path, so a
    forced merge stays forced: the merges made are the same in any order,
    and since merge keeps the smaller id, so are the ids. The path and w
    form a cycle, which lies in the core, so the sweeps visit core nodes
    only.

    A sweep visits the times in one direction and labels each node with its
    component in the lattice of the nodes at its time and before; w's
    earlier neighbours that share a label are merged. A merge joins two
    nodes that lattice already connects, so every label stays valid, and
    the only merge it can newly force in the sweep's direction is among the
    merged node's own earlier neighbours: the sweep makes it at once, and so
    on one step further back. So a sweep leaves no merge forced in its
    direction, but its merges can connect earlier nodes through later ones:
    sweeps alternate direction until one after the first finds nothing.
    """
    direction, first = 1, True
    while _forced_sweep(state, direction) or first:
        direction, first = -direction, False


def _forced_sweep(state, direction):
    """One sweep of _forced_merges; True when it merged anything."""
    times, adj = state.times, state.adj
    by_time = {}
    for i in state.core:
        by_time.setdefault(times[i], []).append(i)
    uf = {}
    label = {}  # time -> {node: its component in the lattice up to that time}
    merged = False
    for t in sorted(by_time, reverse=direction == -1):
        level = by_time[t]
        # (node, time): merge the node's neighbours at that time by label
        todo = [(w, t - direction) for w in level]
        while todo:
            w, back = todo.pop()
            earlier = label.get(back, ())
            side = [nb for nb in adj[w] if nb in earlier]
            if len(side) < 2:
                continue
            groups = {}
            for nb in side:
                groups.setdefault(earlier[nb], []).append(nb)
            for members in groups.values():
                if len(members) > 1:
                    keep = min(members)
                    for other in members:
                        if other != keep:
                            state.merge(keep, other)
                    todo.append((keep, back - direction))
                    merged = True
        earlier = label.get(t - direction, ())
        for i in level:
            uf[i] = i  # a root until a later node of this level joins it
            for nb in adj[i]:
                if nb in earlier:
                    uf[_find(uf, nb)] = i
        label[t] = {i: _find(uf, i) for i in level}
    return merged


def _minimise(state, cap, seen):
    """Smallest achievable width from this state; None if >= cap everywhere.

    Forced merges first; leftover cycles admit genuine choices (any valid
    decomposition must identify some same-time pair of the cycle), so those
    are branched exhaustively with width-based pruning. seen holds the bag
    partitions already searched: the cap passed down is always the best
    width found so far, so a partition searched before cannot beat it. No
    merge touches a node outside state.core, so the core's bags determine
    the partition.
    """
    _forced_merges(state)
    if state.width() >= cap:
        return None
    cycle = state.find_cycle()
    if cycle is None:
        return state
    key = frozenset((state.times[i], frozenset(state.bags[i])) for i in state.core)
    if key in seen:
        return None
    seen.add(key)
    by_time = {}
    for node in sorted(cycle):
        by_time.setdefault(state.times[node], []).append(node)
    best = None
    for t in sorted(by_time):
        for x, y in combinations(by_time[t], 2):
            if len(state.bags[x]) + len(state.bags[y]) >= cap:
                continue
            trial = state.clone()
            trial.merge(x, y)
            result = _minimise(trial, cap, seen)
            if result is not None:
                best, cap = result, result.width()
    return best


def _interval_forest(g):
    """The bag forest before any merge: one node per component of a
    snapshot's edges, one interval node per maximal run of timesteps in which
    a vertex has no edge, and an edge between the nodes that hold a vertex at
    consecutive times. A node that starts at time t with smallest vertex v
    has id t*n + v, so ids sort by time, then smallest vertex, and a merge
    that keeps the smaller id keeps that order."""
    n = g.n
    bags, times, adj, ends = {}, {}, {}, {}
    placed = [0] * n  # the last timestep each vertex has a node at
    holder = [None] * n  # that node

    def attach(v, nid):
        if holder[v] is not None:
            adj[holder[v]].add(nid)
            adj[nid].add(holder[v])
        holder[v] = nid

    def idle_run(v, last):
        first = placed[v] + 1
        run = first * n + v
        bags[run], times[run], adj[run] = {v}, first, set()
        if first < last:
            ends[run] = last
        attach(v, run)

    for t in range(1, g.lifetime + 1):
        for comp in _edge_components(g.edges_at(t)):
            nid = t * n + comp[0]
            bags[nid], times[nid], adj[nid] = set(comp), t, set()
            for v in comp:
                if placed[v] < t - 1:
                    idle_run(v, t - 1)
                attach(v, nid)
                placed[v] = t
    for v in range(n):
        if placed[v] < g.lifetime:
            idle_run(v, g.lifetime)
    return _BagState(bags, times, adj, ends)


def _two_core(adj, nodes=None):
    """The nodes left after repeatedly removing every node of degree below
    two from the forest's subgraph on nodes (default all): those on a cycle
    or on a path between two cycles."""
    if nodes is None:
        degree = {i: len(ns) for i, ns in adj.items()}
    else:
        degree = {i: len(adj[i] & nodes) for i in nodes}
    peeled = [i for i, d in degree.items() if d < 2]
    for i in peeled:
        for nb in adj[i]:
            if nb in degree:
                degree[nb] -= 1
                if degree[nb] == 1:
                    peeled.append(nb)
    return degree.keys() - peeled


def _tim_forest(g):
    """The minimum-width bag forest, idle runs off the cycles kept as
    interval nodes.

    Only nodes of the 2-core lie on a cycle. A forced merge joins two
    same-time neighbours of a node w that a path avoiding w connects, which
    closes a cycle; a branching merge joins two nodes of a cycle it found;
    and merging two core nodes never puts a tree hanging off the core on a
    cycle. So no interval node outside the core is ever merged, and only
    those in it are expanded to one node per timestep before the search.
    The core, with the nodes that expansion adds, goes with the state into
    the search: a simple path between two core nodes never leaves the core,
    so the forced merges and find_cycle look at core nodes only.
    """
    state = _interval_forest(g)
    core = _two_core(state.adj)
    if not core:
        return state
    for i in core & state.ends.keys():
        core.update(state.expand(i, g.n))
    state.core = core
    return _minimise(state, g.n + 1, set())


def _as_decomposition(g, state, expand=False):
    """The state's nodes in id order. ends is set while the state still
    holds interval nodes, unless expand, which writes interval node i as one
    node per timestep, ids i, i + n, ... up to its last time (they sort by
    time, then smallest vertex, with the others), whose arcs to later nodes
    leave from the last."""
    n, bags, times, ends = g.n, state.bags, state.times, state.ends
    origin = {i: i for i in bags}  # written id -> the node whose bag it holds
    last = {}  # interval node -> its last written id
    if expand:
        for i, e in ends.items():
            last[i] = i + (e - times[i]) * n
            for x in range(i + n, last[i] + 1, n):
                origin[x] = i
    ids = sorted(origin)
    index = {x: k for k, x in enumerate(ids)}
    arcs = []
    for i in bags:
        t, tail = times[i], index[last.get(i, i)]
        arcs += [(tail, index[j]) for j in state.adj[i] if times[j] > t]
    for i, end in last.items():
        arcs += [(index[x], index[x + n]) for x in range(i, end, n)]
    arcs.sort()
    frozen = {i: frozenset(b) for i, b in bags.items()}
    runs = tuple(ends.get(i, times[i]) for i in ids) if ends and not expand else ()
    return TimDecomposition(
        n,
        g.lifetime,
        tuple([frozen[origin[x]] for x in ids]),
        tuple([x // n for x in ids]),  # an id is its time * n + its smallest vertex
        tuple(arcs),
        runs,
    )


def compute_tim_decomposition(g: TemporalGraph) -> TimDecomposition:
    """Minimum-width TIM decomposition.

    Starts from one bag per snapshot component with arcs between intersecting
    bags at consecutive times, applies every forced merge, and resolves any
    remaining cycles by exact search over the same-time identifications a
    tree shape still requires. Disconnected underlying graphs yield one tree
    per underlying component. The search keeps each idle run that lies on no
    cycle as one node (see _tim_forest); the result has one node per bag,
    written straight from those.
    """
    return _as_decomposition(g, _tim_forest(g), expand=True)


def interval_decomposition(g: TemporalGraph) -> TimDecomposition:
    """compute_tim_decomposition's decomposition with each maximal idle run
    outside the 2-core of the initial bag forest as one interval node (see
    TimDecomposition.ends), in order of first time, then smallest vertex:
    O(time-edges + runs) nodes where the expanded form has about n * Lambda.
    The search expands the runs in the 2-core (see _tim_forest); those it
    leaves unmerged stay one node per timestep.
    """
    return _as_decomposition(g, _tim_forest(g))


def tim_width(g: TemporalGraph) -> int:
    """Minimum TIM width; 1 by convention for edgeless graphs."""
    if g.lifetime == 0:
        return 1
    return _tim_forest(g).width()


def validate_decomposition(g: TemporalGraph, d: TimDecomposition) -> ValidationReport:
    """Check the definitional conditions plus acyclicity and bag sanity.

    Conditions: (1) each vertex in exactly one bag per time, (2) each
    time-edge inside exactly one bag at its time, (3) arcs are exactly the
    intersecting consecutive-time pairs. An interval node i holds its bag at
    each time from times[i] to ends[i]. Returns the first violation found.
    Conditions 2 and 3 read the node that condition 1 found holding each
    vertex at each time, so the check is linear in n * Lambda plus the
    nodes, arcs and time-edges.
    """

    def fail(cond, msg, witness=()):
        return ValidationReport(False, Violation(cond, msg, tuple(witness)))

    lam = g.lifetime
    if (d.n, d.lifetime) != (g.n, lam):
        return fail(
            "bags",
            f"decomposition has n={d.n}, Lambda={d.lifetime} but the graph has n={g.n}, Lambda={lam}",
            (d.n, d.lifetime),
        )
    if d.ends and len(d.ends) != len(d.bags):
        return fail("bags", f"{len(d.ends)} ends for {len(d.bags)} nodes", (len(d.ends),))
    ends = d.ends or d.times
    for i, bag in enumerate(d.bags):
        if not bag:
            return fail("bags", f"bag {i} is empty", (i,))
        if not (1 <= d.times[i] <= lam):
            return fail("bags", f"bag {i} has time {d.times[i]} outside [1, {lam}]", (i,))
        if not d.times[i] <= ends[i] <= lam:
            return fail("bags", f"node {i} ends at time {ends[i]} outside [{d.times[i]}, {lam}]", (i,))
        stray = sorted(v for v in bag if not 0 <= v < g.n)
        if stray:
            return fail("bags", f"bag {i} holds vertex {stray[0]} outside 0..{g.n - 1}", (i, stray[0]))
    if d.node_count() > g.n * lam:
        return fail("bags", f"{d.node_count()} bags exceed n*Lambda = {g.n * lam}")

    by_time = {}
    for i, t in enumerate(d.times):
        for s in range(t, ends[i] + 1):
            by_time.setdefault(s, []).append(i)
    owner = {}  # time -> {vertex: the node holding it then}
    for t in range(1, lam + 1):
        owner[t] = seen = {}
        for i in by_time.get(t, ()):
            for v in d.bags[i]:
                if v in seen:
                    return fail(
                        "condition1",
                        f"vertex {v} in bags {seen[v]} and {i} at time {t}",
                        (v, t, seen[v], i),
                    )
                seen[v] = i
        for v in range(g.n):
            if v not in seen:
                return fail("condition1", f"vertex {v} in no bag at time {t}", (v, t))

    for u, v, t in g.time_edges:
        if owner[t][u] != owner[t][v]:
            return fail("condition2", f"time-edge ({u}, {v}, {t}) lies in 0 bags", (u, v, t))

    expected = {
        (owner[t][v], owner[t + 1][v])
        for t in range(1, lam)
        for v in range(g.n)
        if owner[t][v] != owner[t + 1][v]
    }
    actual = set(d.arcs)
    if actual != expected:
        delta = tuple(sorted(actual.symmetric_difference(expected)))[:4]
        return fail("condition3", "arc set differs from definition", delta)

    uf = list(range(len(d.bags)))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for i, j in d.arcs:
        ri, rj = find(i), find(j)
        if ri == rj:
            return fail("tree", "decomposition graph contains a cycle", (i, j))
        uf[ri] = rj

    return ValidationReport(True, None)


def decomposition_from_vim(g: TemporalGraph) -> TimDecomposition:
    """The width-omega decomposition with one F_t bag plus singletons per
    time: nodes numbered in time order, F_t first, then the singletons by
    vertex, and an arc between the nodes that hold a vertex at consecutive
    times."""
    bags, times, arcs, before = [], [], set(), None
    for t, ft in enumerate(vim_sequence(g).bags[1 : g.lifetime + 1], start=1):
        node_of = [0] * g.n
        for group in ([ft] if ft else []) + [(v,) for v in range(g.n) if v not in ft]:
            for v in group:
                node_of[v] = len(bags)
            bags.append(frozenset(group))
            times.append(t)
        if before is not None:
            arcs.update(zip(before, node_of))
        before = node_of
    return TimDecomposition(g.n, g.lifetime, tuple(bags), tuple(times), tuple(sorted(arcs)))


@dataclass(frozen=True)
class RootedTimDecomposition:
    """A TIM decomposition with time-0 leaf copies of the time-1 bags and a
    deterministic root per tree (the time-Lambda bag holding the tree's
    lowest vertex id, unless root_and_augment is given a root). parent and
    children are its edges.

    Rooting an interval_decomposition keeps its interval nodes. Such a node
    s holds its singleton bag from times[s], the timestep next to its parent
    (Lambda at a root), to the timestep next to its only child, which is a
    singleton bag too: a time-0 copy, or the interval's own last bag, split
    off as a node. So a node whose bag and only child's bag are singletons
    spans |times[s] - times[child]| bags. That shape also matches a
    singleton bag over a singleton child in an expanded tree, one timestep
    away: it spans one bag, exactly its own.
    copy_of, derived on first access, maps each time-0 copy to the node it
    copies, its one tree neighbour.
    """

    n: int
    lifetime: int
    bags: tuple
    times: tuple
    roots: tuple
    parent: tuple
    children: tuple

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0)

    @_built_once
    def copy_of(self):
        return {
            s: self.children[s][0] if self.parent[s] is None else self.parent[s]
            for s, t in enumerate(self.times)
            if t == 0
        }

    @property
    def root(self):
        if len(self.roots) != 1:
            raise ValueError("decomposition is a forest; use .roots")
        return self.roots[0]


def root_and_augment(d: TimDecomposition, root=None) -> RootedTimDecomposition:
    """Attach time-0 copies of the time-1 nodes and orient each tree at a root.

    root names a node of d, or len(d.bags) + k for the time-0 copy of the
    k-th time-1 node, and roots its tree there; every other tree is rooted
    at its time-Lambda node holding the lowest vertex id. Each tree is
    oriented by one breadth-first search from its root, children in id
    order. ValueError when root names no node, or an interval node that
    ends before Lambda: to root inside an idle run, root an expanded
    decomposition (compute_tim_decomposition's) instead; when an arc
    closes a cycle, which the search finds as a neighbour reached before
    that is not the parent; and when a tree has no time-Lambda node to root
    it at.
    """
    bags = list(d.bags)
    times = list(d.times)
    ends = list(d.ends or d.times)
    arcs = list(d.arcs)

    for i in range(len(bags)):
        if times[i] == 1:
            cid = len(bags)
            bags.append(bags[i])
            times.append(0)
            ends.append(0)
            arcs.append((cid, i))
    if root is not None:
        if not 0 <= root < len(bags):
            raise ValueError(f"root {root} names none of the {len(bags)} nodes and time-0 copies")
        if times[root] < ends[root] < d.lifetime:
            raise ValueError(
                f"root {root} is an interval node ending before Lambda={d.lifetime}; "
                "root an expanded decomposition instead"
            )

    adj = [[] for _ in bags]
    for i, j in arcs:
        adj[i].append(j)
        adj[j].append(i)
    for lst in adj:
        lst.sort()

    lam = d.lifetime
    parent = [None] * len(bags)
    children = [[] for _ in bags]
    reached = [False] * len(bags)
    roots = []
    # a tree's first top in this order is its root
    tops = sorted((i for i in range(len(bags)) if ends[i] == lam), key=lambda i: (min(bags[i]), i))
    for top in ([] if root is None else [root]) + tops:
        if reached[top]:
            continue
        roots.append(top)
        reached[top] = True
        order = [top]
        while order:
            nxt = []
            for x in order:
                for y in adj[x]:
                    if not reached[y]:
                        reached[y] = True
                        parent[y] = x
                        children[x].append(y)
                        nxt.append(y)
                    elif y != parent[x]:
                        raise ValueError(
                            f"the arc between nodes {min(x, y)} and {max(x, y)} closes a cycle; "
                            "a decomposition's arcs must form a forest"
                        )
            order = nxt
    if not all(reached):
        raise ValueError(f"node {reached.index(False)} lies in a tree with no time-Lambda node")

    # an interval node takes the end next to its parent as its time and
    # hands the bag next to its child to a node of its own, unless that
    # child is a time-0 copy
    for s in range(len(bags)):
        first, last = times[s], ends[s]
        if first == last:
            continue
        p = parent[s]
        up = p is not None and times[p] < first
        times[s], far = (first, last) if up else (last, first)
        below = children[s]
        if below and times[below[0]] == 0:
            continue
        x = len(bags)
        bags.append(bags[s])
        times.append(far)
        parent.append(s)
        children.append(below)
        children[s] = [x]
        for c in below:
            parent[c] = x

    return RootedTimDecomposition(
        d.n,
        lam,
        tuple(bags),
        tuple(times),
        tuple(sorted(roots)),
        tuple(parent),
        tuple(tuple(c) for c in children),
    )
