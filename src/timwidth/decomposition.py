"""Minimum TIM decompositions: construction, validation, rooting, 2-step bags."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import TemporalGraph, _components
from .widths import vim_sequence


@dataclass(frozen=True)
class TimDecomposition:
    """A time-labelled bag forest for a temporal graph.

    bags[i] is a frozenset of vertices, times[i] its timestep, arcs the
    directed (i, j) pairs between intersecting bags at consecutive times.
    For connected underlying graphs the forest is a single tree.
    """

    n: int
    lifetime: int
    bags: tuple
    times: tuple
    arcs: tuple

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0)

    def node_count(self):
        return len(self.bags)

    def neighbours(self):
        adj = [[] for _ in self.bags]
        for i, j in self.arcs:
            adj[i].append(j)
            adj[j].append(i)
        return adj


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
    """Mutable bag forest during cycle elimination."""

    __slots__ = ("bags", "times", "adj")

    def __init__(self, bags, times, adj):
        self.bags = bags  # id -> set of vertices (live ids only)
        self.times = times  # id -> timestep
        self.adj = adj  # id -> set of neighbour ids

    def clone(self):
        return _BagState(
            {i: set(b) for i, b in self.bags.items()},
            dict(self.times),
            {i: set(ns) for i, ns in self.adj.items()},
        )

    def merge(self, keep, other):
        if other < keep:
            keep, other = other, keep
        self.bags[keep] |= self.bags.pop(other)
        for nb in list(self.adj[other]):
            self.adj[nb].discard(other)
            if nb != keep:
                self.adj[nb].add(keep)
                self.adj[keep].add(nb)
        self.adj[keep].discard(other)
        del self.adj[other]
        del self.times[other]
        return keep

    def width(self):
        return max((len(b) for b in self.bags.values()), default=0)

    def is_acyclic(self):
        seen = set()
        for start in self.adj:
            if start in seen:
                continue
            parent = {start: None}
            seen.add(start)
            stack = [start]
            while stack:
                node = stack.pop()
                for nb in self.adj[node]:
                    if nb == parent[node]:
                        continue
                    if nb in parent:
                        return False
                    parent[nb] = node
                    seen.add(nb)
                    stack.append(nb)
        return True

    def find_cycle(self):
        seen = set()
        for start in sorted(self.adj):
            if start in seen:
                continue
            parent = {start: None}
            stack = [(start, iter(sorted(self.adj[start])))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for nb in it:
                    if nb == parent[node]:
                        continue
                    if nb in parent:
                        cycle = [node]
                        x = node
                        while x != nb:
                            x = parent[x]
                            cycle.append(x)
                        return cycle
                    parent[nb] = node
                    seen.add(nb)
                    stack.append((nb, iter(sorted(self.adj[nb]))))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
        return None


def _forced_merge_pass(state):
    """Apply one forced merge if any exists; return True when one was made.

    If two same-time neighbours of a node w are connected through nodes at
    strictly earlier times (or strictly later, symmetrically), any tree whose
    bags contain the current ones must identify them: removing the image of
    w from a tree separates its neighbours, and the connecting path cannot
    pass through the image of w because every node on it has a different
    timestep. Only such provably forced merges happen here.
    """
    for direction in (1, -1):
        by_time = {}
        for i, t in state.times.items():
            by_time.setdefault(t, []).append(i)
        order = sorted(by_time) if direction == 1 else sorted(by_time, reverse=True)
        uf = {}

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        prev_level = None
        for t in order:
            level = sorted(by_time[t])
            # connect the strictly-before lattice, then test each node's
            # same-side neighbour groups
            if prev_level is not None:
                for i in prev_level:
                    for nb in state.adj[i]:
                        if nb in uf and state.times[nb] == state.times[i] - direction:
                            ra, rb = find(i), find(nb)
                            if ra != rb:
                                uf[ra] = rb
            for w in level:
                groups = {}
                for nb in state.adj[w]:
                    if state.times[nb] == t - direction:
                        groups.setdefault(find(nb), []).append(nb)
                for members in groups.values():
                    if len(members) >= 2:
                        members.sort()
                        keep = members[0]
                        for other in members[1:]:
                            state.merge(keep, other)
                        return True
            for i in level:
                uf[i] = i
            prev_level = level
    return False


def _minimise(state, cap):
    """Smallest achievable width from this state; None if >= cap everywhere.

    Forced merges first; leftover cycles admit genuine choices (any valid
    decomposition must identify some same-time pair of the cycle), so those
    are branched exhaustively with width-based pruning.
    """
    while _forced_merge_pass(state):
        pass
    if state.width() >= cap:
        return None
    cycle = state.find_cycle()
    if cycle is None:
        return state
    candidates = []
    by_time = {}
    for node in sorted(cycle):
        by_time.setdefault(state.times[node], []).append(node)
    for t in sorted(by_time):
        nodes = by_time[t]
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                candidates.append((nodes[a], nodes[b]))
    best = None
    best_width = cap
    for x, y in candidates:
        trial = state.clone()
        trial.merge(x, y)
        result = _minimise(trial, best_width)
        if result is not None and result.width() < best_width:
            best = result
            best_width = result.width()
    return best


def compute_tim_decomposition(g: TemporalGraph) -> TimDecomposition:
    """Minimum-width TIM decomposition.

    Starts from one bag per snapshot component with arcs between intersecting
    bags at consecutive times, applies every forced merge, and resolves any
    remaining cycles by exact search over the same-time identifications a
    tree shape still requires. Disconnected underlying graphs yield one tree
    per underlying component.
    """
    lam = g.lifetime
    if lam == 0:
        return TimDecomposition(g.n, 0, (), (), ())

    bags = {}
    times = {}
    node_at = []
    for t in range(1, lam + 1):
        lookup = [0] * g.n
        for comp in _components(g.n, g.edges_at(t)):
            nid = len(bags)
            bags[nid] = set(comp)
            times[nid] = t
            for v in comp:
                lookup[v] = nid
        node_at.append(lookup)

    adj = {i: set() for i in bags}
    for t in range(1, lam):
        prev, nxt = node_at[t - 1], node_at[t]
        for v in range(g.n):
            adj[prev[v]].add(nxt[v])
            adj[nxt[v]].add(prev[v])

    state = _BagState(bags, times, adj)
    if not state.is_acyclic():
        state = _minimise(state, g.n + 1)
    live = sorted(state.bags)
    remap = {old: new for new, old in enumerate(live)}
    out_bags = tuple(frozenset(state.bags[i]) for i in live)
    out_times = tuple(state.times[i] for i in live)
    out_arcs = []
    for i in live:
        for j in state.adj[i]:
            if state.times[j] == state.times[i] + 1:
                out_arcs.append((remap[i], remap[j]))
    return TimDecomposition(g.n, lam, out_bags, out_times, tuple(sorted(out_arcs)))


def tim_width(g: TemporalGraph) -> int:
    """Minimum TIM width; 1 by convention for edgeless graphs."""
    if g.lifetime == 0:
        return 1
    return compute_tim_decomposition(g).width


def validate_decomposition(g: TemporalGraph, d: TimDecomposition) -> ValidationReport:
    """Check the definitional conditions plus acyclicity and bag sanity.

    Conditions: (1) each vertex in exactly one bag per time, (2) each
    time-edge inside exactly one bag at its time, (3) arcs are exactly the
    intersecting consecutive-time pairs. Returns the first violation found.
    """

    def fail(cond, msg, witness=()):
        return ValidationReport(False, Violation(cond, msg, tuple(witness)))

    lam = g.lifetime
    for i, bag in enumerate(d.bags):
        if not bag:
            return fail("bags", f"bag {i} is empty", (i,))
        if not (1 <= d.times[i] <= lam):
            return fail("bags", f"bag {i} has time {d.times[i]} outside [1, {lam}]", (i,))
    if len(d.bags) > g.n * lam:
        return fail("bags", f"{len(d.bags)} nodes exceed n*Lambda = {g.n * lam}")

    by_time = {}
    for i, t in enumerate(d.times):
        by_time.setdefault(t, []).append(i)
    for t in range(1, lam + 1):
        seen = {}
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
        holders = [i for i in by_time.get(t, ()) if u in d.bags[i] and v in d.bags[i]]
        if len(holders) != 1:
            return fail(
                "condition2",
                f"time-edge ({u}, {v}, {t}) lies in {len(holders)} bags",
                (u, v, t),
            )

    expected = set()
    for t in range(1, lam):
        for i in by_time.get(t, ()):
            for j in by_time.get(t + 1, ()):
                if d.bags[i] & d.bags[j]:
                    expected.add((i, j))
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
    """The width-omega decomposition with one F_t bag plus singletons per time."""
    lam = g.lifetime
    if lam == 0:
        return TimDecomposition(g.n, 0, (), (), ())
    vs = vim_sequence(g)
    bags = []
    times = []
    node_at = []
    for t in range(1, lam + 1):
        lookup = [0] * g.n
        ft = vs.bags[t]
        if ft:
            nid = len(bags)
            bags.append(frozenset(ft))
            times.append(t)
            for v in ft:
                lookup[v] = nid
        for v in range(g.n):
            if v not in ft:
                nid = len(bags)
                bags.append(frozenset((v,)))
                times.append(t)
                lookup[v] = nid
        node_at.append(lookup)
    arcs = set()
    for t in range(1, lam):
        prev, nxt = node_at[t - 1], node_at[t]
        for v in range(g.n):
            arcs.add((prev[v], nxt[v]))
    return TimDecomposition(g.n, lam, tuple(bags), tuple(times), tuple(sorted(arcs)))


@dataclass(frozen=True)
class RootedTimDecomposition:
    """A TIM decomposition with time-0 leaf copies of the time-1 bags and a
    deterministic root per tree (the time-Lambda bag holding the tree's
    lowest vertex id, unless overridden)."""

    n: int
    lifetime: int
    bags: tuple
    times: tuple
    arcs: tuple
    roots: tuple
    parent: tuple
    children: tuple
    copy_of: dict  # time-0 node id -> original time-1 node id

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0)

    @property
    def root(self):
        if len(self.roots) != 1:
            raise ValueError("decomposition is a forest; use .roots")
        return self.roots[0]


def root_and_augment(d: TimDecomposition, root_override=None) -> RootedTimDecomposition:
    """Attach time-0 copies of the time-1 bags and orient each tree at a root."""
    bags = list(d.bags)
    times = list(d.times)
    arcs = list(d.arcs)
    copy_of = {}
    for i in range(len(d.bags)):
        if d.times[i] == 1:
            cid = len(bags)
            bags.append(d.bags[i])
            times.append(0)
            arcs.append((cid, i))
            copy_of[cid] = i

    adj = [[] for _ in bags]
    for i, j in arcs:
        adj[i].append(j)
        adj[j].append(i)
    for lst in adj:
        lst.sort()

    visited = [False] * len(bags)
    parent = [None] * len(bags)
    children = [[] for _ in bags]
    roots = []

    def tree_nodes(start):
        comp = [start]
        visited[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not visited[y]:
                    visited[y] = True
                    comp.append(y)
                    stack.append(y)
        return comp

    lam = d.lifetime
    for start in range(len(bags)):
        if visited[start]:
            continue
        comp = tree_nodes(start)
        if root_override is not None and root_override in comp:
            root = root_override
        else:
            candidates = [i for i in comp if times[i] == lam]
            root = min(candidates, key=lambda i: (min(bags[i]), i))
        roots.append(root)
        parent[root] = None
        order = [root]
        seen = {root}
        while order:
            nxt = []
            for x in order:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        children[x].append(y)
                        nxt.append(y)
            order = nxt

    return RootedTimDecomposition(
        d.n,
        d.lifetime,
        tuple(bags),
        tuple(times),
        tuple(sorted(arcs)),
        tuple(sorted(roots)),
        tuple(parent),
        tuple(tuple(c) for c in children),
        copy_of,
    )


@dataclass(frozen=True)
class TwoStepDecomposition:
    """2-step bags over a rooted decomposition.

    The 2-step bag B2(s) holds the node's own (vertex, time) pairs plus each
    child's pairs at the child's time. components[s] lists the timed
    components of B2(s) as (t, vertex-tuple) entries ordered by time, then
    smallest member; time-0 pairs take the component structure of the first
    snapshot, mirroring F_0 = F_1. pairs[s], the pair set of B2(s), is
    derived from components[s] on first access. width is max |B2(s)|: a
    child's time differs from its parent's and bags at one time are
    disjoint, so it is |B(s)| plus the children's |B(c)|.
    """

    rooted: RootedTimDecomposition
    components: tuple
    width: int

    @cached_property
    def pairs(self):
        return tuple(
            frozenset((v, t) for t, verts in comps for v in verts) for comps in self.components
        )


def build_two_step(rd: RootedTimDecomposition, g: TemporalGraph) -> TwoStepDecomposition:
    # snapshot components once per timestep, with each vertex's component index
    comps_at = [()]
    index_at = [()]
    for t in range(1, rd.lifetime + 1):
        comps = _components(g.n, g.edges_at(t))
        index = [0] * g.n
        for i, comp in enumerate(comps):
            for v in comp:
                index[v] = i
        comps_at.append(comps)
        index_at.append(index)
    if rd.lifetime:
        comps_at[0], index_at[0] = comps_at[1], index_at[1]

    own = []
    for bag, t in zip(rd.bags, rd.times):
        comps, index = comps_at[t], index_at[t]
        mine = [comps[i] for i in sorted({index[v] for v in bag})]
        assert sum(map(len, mine)) == len(bag), "bag pairs must cover whole components"
        own.append([(t, comp) for comp in mine])
    components = tuple(
        tuple(sorted(own[s] + [entry for c in children for entry in own[c]]))
        for s, children in enumerate(rd.children)
    )
    width = max(
        (len(bag) + sum(len(rd.bags[c]) for c in children)
         for bag, children in zip(rd.bags, rd.children)),
        default=0,
    )
    return TwoStepDecomposition(rd, components, width)
