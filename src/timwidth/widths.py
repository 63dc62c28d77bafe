"""VIM sequence and the connected-VIM width variants."""

from __future__ import annotations

from dataclasses import dataclass

from .core import TemporalGraph


@dataclass(frozen=True)
class VimSequence:
    """Bags F_0..F_Lambda and active sets A_0..A_Lambda of a temporal graph.

    F_t holds the vertices inside their active interval at time t, A_t the
    vertices with an incident edge active at t. By convention F_0 = F_1 and
    A_0 = A_1. The width is max |F_t| over t in [1, Lambda], or 1 for
    edgeless graphs.
    """

    bags: tuple
    actives: tuple
    width: int


def vim_sequence(g: TemporalGraph) -> VimSequence:
    lam = g.lifetime
    if lam == 0:
        return VimSequence((frozenset(),), (frozenset(),), 1)
    first = {}
    last = {}
    active = [set() for _ in range(lam + 1)]
    for u, v, t in g.time_edges:
        for x in (u, v):
            if x not in first or t < first[x]:
                first[x] = t
            if x not in last or t > last[x]:
                last[x] = t
            active[t].add(x)
    bags = [set() for _ in range(lam + 1)]
    for x, f in first.items():
        for t in range(f, last[x] + 1):
            bags[t].add(x)
    bags[0] = bags[1]
    active[0] = active[1]
    frozen = tuple(frozenset(b) for b in bags)
    return VimSequence(
        frozen,
        tuple(frozenset(a) for a in active),
        max(len(b) for b in frozen[1:]),
    )


@dataclass(frozen=True)
class ConnectedVimResult:
    """A connected-VIM width together with its per-time bag lists.

    bags[t] lists, for each component C of G_d(t), the nonempty intersections
    V(C) & F_t as sorted tuples; bags[0] is always empty.
    """

    width: int
    bags: tuple


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _sweep(g: TemporalGraph, direction: str):
    """Yield (t, find) over times ascending (le) or descending (ge); find
    maps a vertex to its component root in the prefix (suffix) graph at t,
    maintained incrementally with one union-find."""
    lam = g.lifetime
    uf = _UnionFind(g.n)
    for t in range(1, lam + 1) if direction == "le" else range(lam, 0, -1):
        for u, v in g.edges_at(t):
            uf.union(u, v)
        yield t, uf.find


def connected_vim_width(g: TemporalGraph, direction: str, vs=None) -> ConnectedVimResult:
    """The d-connected-VIM width for d in {"le", "ge"}.

    A precomputed VimSequence may be passed to avoid recomputation.
    """
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    lam = g.lifetime
    if lam == 0:
        return ConnectedVimResult(1, ((),))
    if vs is None:
        vs = vim_sequence(g)
    per_time = [()] * (lam + 1)
    width = 1
    for t, find in _sweep(g, direction):
        groups = {}
        for x in vs.bags[t]:
            groups.setdefault(find(x), []).append(x)
        bags_t = tuple(tuple(sorted(members)) for _, members in sorted(groups.items()))
        per_time[t] = bags_t
        for b in bags_t:
            if len(b) > width:
                width = len(b)
    return ConnectedVimResult(width, tuple(per_time))


def bidirectional_cvim_width(g: TemporalGraph) -> int:
    """min over split times t of the three-case bidirectional formula.

    The prefix and suffix terms take the original graph's VIM bags, which is
    the width of the split decomposition the parameter describes: connected
    prefix bags up to t-1, the full bag F_t at t, connected suffix bags from
    t+1 on. Evaluating the truncated graphs with their own, smaller bags
    would undercut the decomposition the split actually produces and break
    the comparison with TIM width.
    """
    lam = g.lifetime
    if lam == 0:
        return 1
    vs = vim_sequence(g)
    # largest |component of G_d(t) intersected with F_t| for each t
    le = [0] * (lam + 1)
    ge = [0] * (lam + 1)
    for per_time, direction in ((le, "le"), (ge, "ge")):
        for t, find in _sweep(g, direction):
            sizes = {}
            best = 0
            for x in vs.bags[t]:
                r = find(x)
                c = sizes.get(r, 0) + 1
                sizes[r] = c
                if c > best:
                    best = c
            per_time[t] = best
    prefix_le = [0] * (lam + 2)
    for t in range(1, lam + 1):
        prefix_le[t] = max(prefix_le[t - 1], le[t])
    suffix_ge = [0] * (lam + 2)
    for t in range(lam, 0, -1):
        suffix_ge[t] = max(suffix_ge[t + 1], ge[t])
    best = None
    for t in range(1, lam + 1):
        if t == 1:
            val = max(suffix_ge[1], 1)
        elif t == lam:
            val = max(prefix_le[lam], 1)
        else:
            val = max(prefix_le[t - 1], suffix_ge[t + 1], len(vs.bags[t]), 1)
        if best is None or val < best:
            best = val
    return best
