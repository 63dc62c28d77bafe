"""Brute-force reference solvers. Ground truth at desk scale.

Nothing here shares logic with the engines or plugins; these are the
independent side of every cross-check.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, product

from .core import TemporalGraph


class OracleBudgetExceeded(Exception):
    """Raised when an oracle is given a time budget and runs past it."""


def oracle_ham(g: TemporalGraph, time_budget=None) -> bool:
    """Exhaustive search for a temporal path covering every vertex.

    Plain DFS over time-edge sequences with strictly increasing times and no
    repeated vertex. Exponential; intended for n <= 10. An optional
    time_budget in seconds raises OracleBudgetExceeded when exceeded.
    """
    n = g.n
    if n <= 1:
        return True
    edges = g.time_edges
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    counter = [0]

    def extend(current, visited, last_t, remaining):
        counter[0] += 1
        if deadline is not None and counter[0] % 256 == 0:
            if time.monotonic() > deadline:
                raise OracleBudgetExceeded("oracle_ham ran past its budget")
        if remaining == 0:
            return True
        for u, v, t in edges:
            if t <= last_t:
                continue
            if u == current and v not in visited:
                nxt = v
            elif v == current and u not in visited:
                nxt = u
            else:
                continue
            if extend(nxt, visited | {nxt}, t, remaining - 1):
                return True
        return False

    for start in range(n):
        if extend(start, {start}, 0, n - 1):
            return True
    return False


def oracle_matching(g: TemporalGraph, delta: int, h: int) -> bool:
    """True iff some set of >= h time-edges is pairwise compatible.

    Two time-edges are compatible when their endpoints are disjoint or their
    times differ by at least delta. DFS over edge subsets in input order.
    """
    if h <= 0:
        return True
    edges = g.time_edges

    def compatible(a, b):
        ua, va, ta = a
        ub, vb, tb = b
        if {ua, va} & {ub, vb}:
            return abs(ta - tb) >= delta
        return True

    def grow(idx, chosen, need):
        if need == 0:
            return True
        if len(edges) - idx < need:
            return False
        for i in range(idx, len(edges)):
            e = edges[i]
            if all(compatible(e, c) for c in chosen):
                chosen.append(e)
                if grow(i + 1, chosen, need - 1):
                    return True
                chosen.pop()
        return False

    return grow(0, [], h)


def reachable_set(g: TemporalGraph, source: int, removed=frozenset()):
    """Vertices temporally reachable from source by strict temporal paths.

    Fixpoint over earliest arrivals; a vertex reaches itself. Walk
    reachability equals path reachability, since cutting a revisited vertex
    out of a strict walk keeps the times strictly increasing.
    """
    arrival = {source: 0}
    changed = True
    while changed:
        changed = False
        for u, w, t in g.time_edges:
            if (u, w, t) in removed:
                continue
            for a, b in ((u, w), (w, u)):
                if a in arrival and arrival[a] < t:
                    if b not in arrival or t < arrival[b]:
                        arrival[b] = t
                        changed = True
    return set(arrival)


def earliest_arrival(g: TemporalGraph, source: int):
    """Single-pass earliest arrival times by strict temporal paths.

    Processes time-edges grouped by time in ascending order; within one
    timestep all relaxations read the arrivals from strictly earlier times.
    """
    arrival = {source: 0}
    by_time = {}
    for u, v, t in g.time_edges:
        by_time.setdefault(t, []).append((u, v))
    for t in sorted(by_time):
        updates = {}
        for u, v in by_time[t]:
            for a, b in ((u, v), (v, u)):
                if a in arrival and arrival[a] < t:
                    if b not in arrival:
                        updates[b] = t
        arrival.update(updates)
    return arrival


def oracle_tred(g: TemporalGraph, source: int, r: int, h: int) -> bool:
    """True iff deleting at most h time-edges leaves at most r vertices
    temporally reachable from source."""
    edges = g.time_edges
    if len(reachable_set(g, source)) <= r:
        return True
    for k in range(1, min(h, len(edges)) + 1):
        for subset in combinations(edges, k):
            if len(reachable_set(g, source, frozenset(subset))) <= r:
                return True
    return False


def oracle_firefighter_max(g: TemporalGraph, root: int, mode: str = "endangered") -> int:
    """Maximum number of vertices a reserve strategy can save.

    Game-tree search over per-timestep defence subsets within the accumulated
    budget; the fire then spreads along the snapshot edges from burning
    vertices to undefended unburnt neighbours.

    mode picks the candidate defence pool per timestep:
      "endangered"   vertices that would burn this step if left alone
      "active"       vertices with an active incident edge
      "unrestricted" any unburnt, undefended vertex
    The pools are provably equivalent for the reserve game; smaller pools are
    only a speedup. Cross-validated by tests.
    """
    if mode not in ("endangered", "active", "unrestricted"):
        raise ValueError("unknown mode")
    n = g.n
    lam = g.lifetime
    by_time = [g.edges_at(t) for t in range(lam + 1)]
    future_incident = [set() for _ in range(lam + 2)]
    for t in range(lam, 0, -1):
        future_incident[t] = set(future_incident[t + 1])
        for u, v in by_time[t]:
            future_incident[t].add(u)
            future_incident[t].add(v)

    best_seen = [0]
    memo = {}

    def spread(burning, defended, t):
        adj = {}
        for u, v in by_time[t]:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        new = set()
        for b in burning:
            for x in adj.get(b, ()):
                if x not in burning and x not in defended:
                    new.add(x)
        return new

    def search(burning, defended, t, spent):
        if t > lam:
            return n - len(burning)
        # settled: fire can no longer move
        if not (burning & future_incident[t]):
            return n - len(burning)
        if n - len(burning) <= best_seen[0]:
            return 0  # cannot beat the incumbent
        key = (burning, defended, t)
        if key in memo:
            return memo[key]
        budget = t - spent
        if mode == "unrestricted":
            pool = [v for v in range(n) if v not in burning and v not in defended]
        elif mode == "active":
            pool = sorted(
                {x for e in by_time[t] for x in e} - burning - set(defended)
            )
        else:
            pool = sorted(spread(burning, defended, t))
        best = 0
        max_d = min(budget, len(pool))
        for k in range(max_d, -1, -1):
            for extra in combinations(pool, k):
                d2 = defended | set(extra)
                b2 = frozenset(burning | spread(burning, d2, t))
                saved = search(b2, d2, t + 1, spent + k)
                if saved > best:
                    best = saved
                    if saved > best_seen[0]:
                        best_seen[0] = saved
        memo[key] = best
        return best

    best_seen[0] = 0
    result = search(frozenset([root]), frozenset(), 1, 0)
    return result


def oracle_firefighter(g: TemporalGraph, root: int, h: int, mode: str = "endangered") -> bool:
    return oracle_firefighter_max(g, root, mode=mode) >= h


def max_satisfiable_clauses(num_vars: int, clauses) -> int:
    """Brute-force Max-2-SAT over all assignments."""
    best = 0
    for assignment in range(1 << num_vars):
        sat = 0
        for lits in clauses:
            ok = False
            for lit in lits:
                var = abs(lit) - 1
                val = bool(assignment >> var & 1)
                if (lit > 0) == val:
                    ok = True
                    break
            if ok:
                sat += 1
        if sat > best:
            best = sat
    return best


def _set_partitions(items):
    """All partitions of a list into nonempty blocks, deterministically."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]


def _components(n, edges):
    """Connected components of (range(n), edges) by breadth-first search, as
    sorted vertex tuples ordered by smallest member."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, out = set(), []
    for s in range(n):
        if s not in seen:
            comp = [s]
            seen.add(s)
            for u in comp:
                fresh = adj[u] - seen
                seen |= fresh
                comp.extend(fresh)
            out.append(tuple(sorted(comp)))
    return out


def _bag_groupings(comps):
    """Every grouping of one snapshot's components into bags, each bag a
    sorted vertex tuple."""
    return [
        tuple(tuple(sorted(v for comp in block for v in comp)) for block in part)
        for part in _set_partitions(list(comps))
    ]


def _root(parent, x):
    """x's root in the union-find parent, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@lru_cache(maxsize=None)
def _min_width_for_structure(n, comps_by_time):
    """Minimum TIM width given the per-time snapshot component partitions.

    Enumerates, per time, every grouping of that snapshot's components into
    bags, keeps the acyclic bag systems, and minimises the largest bag. Valid
    because condition 2 is equivalent to bags being unions of snapshot
    components, and arcs are then forced.
    """
    lam = len(comps_by_time)
    if lam == 0:
        return 1
    per_time_groupings = [_bag_groupings(comps) for comps in comps_by_time]

    best = None

    def descend(t, prev_bags, prev_ids, next_id, uf, widest):
        nonlocal best
        if best is not None and widest >= best:
            return
        if t == lam:
            if best is None or widest < best:
                best = widest
            return
        for bags in per_time_groupings[t]:
            ids = list(range(next_id, next_id + len(bags)))
            trial_uf = dict(uf)
            for nid in ids:
                trial_uf[nid] = nid
            owner = {}
            for bag, nid in zip(bags, ids):
                for v in bag:
                    owner[v] = nid
            ok = True
            if prev_bags is not None:
                for bag, pid in zip(prev_bags, prev_ids):
                    touched = {owner[v] for v in bag}
                    for nid in touched:
                        ra, rb = _root(trial_uf, pid), _root(trial_uf, nid)
                        if ra == rb:
                            ok = False
                            break
                        trial_uf[ra] = rb
                    if not ok:
                        break
            if not ok:
                continue
            w = max(widest, max(len(b) for b in bags))
            descend(t + 1, bags, ids, next_id + len(bags), trial_uf, w)

    descend(0, None, None, 0, {}, 0)
    return best


def min_tim_width_exhaustive(g: TemporalGraph) -> int:
    """Minimum width over an exhaustive enumeration of valid decompositions."""
    comps_by_time = tuple(
        tuple(_components(g.n, g.edges_at(t))) for t in range(1, g.lifetime + 1)
    )
    return _min_width_for_structure(g.n, comps_by_time)


def enumerate_tim_decompositions(g: TemporalGraph, limit=100000):
    """Yield every valid decomposition's bag system as (times, bags) lists.

    Each yielded item is a list over nodes of (time, vertex-tuple). Toy-scale
    only; raises if more than limit systems would be produced.
    """
    per_time = [
        _bag_groupings(_components(g.n, g.edges_at(t))) for t in range(1, g.lifetime + 1)
    ]

    count = 0
    for combo in product(*per_time):
        count += 1
        if count > limit:
            raise RuntimeError("too many decompositions to enumerate")
        nodes = []
        for t, bags in enumerate(combo, start=1):
            for bag in bags:
                nodes.append((t, bag))
        # acyclicity over forced arcs
        parent = list(range(len(nodes)))
        ok = True
        for i, (ti, bi) in enumerate(nodes):
            if not ok:
                break
            si = set(bi)
            for j, (tj, bj) in enumerate(nodes):
                if tj != ti + 1 or not (si & set(bj)):
                    continue
                ri, rj = _root(parent, i), _root(parent, j)
                if ri == rj:
                    ok = False
                    break
                parent[ri] = rj
        if ok:
            yield nodes
