"""VIM sequence and the connected-VIM width variants."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import TemporalGraph, _components_among, _find, _merge


@dataclass(frozen=True)
class VimSequence:
    """Bags F_0..F_Lambda of a temporal graph and its VIM width.

    F_t holds the vertices inside their active interval at time t; by
    convention F_0 = F_1. The width is max |F_t| over t in [1, Lambda], or
    1 for edgeless graphs. The active set A_t is snapshot(g, t).vertices.
    graph is the graph the sequence was built for; equality ignores it.
    """

    bags: tuple
    width: int
    graph: TemporalGraph = field(compare=False, repr=False)


def _spans(g):
    """Each vertex with an edge -> its first edge time, and -> its last."""
    # time_edges run in time order, so a vertex's first and last edge times
    # are the first and last seen
    first = {}
    last = {}
    for u, v, t in g.time_edges:
        for x in (u, v):
            first.setdefault(x, t)
            last[x] = t
    return first, last


def vim_sequence(g: TemporalGraph) -> VimSequence:
    lam = g.lifetime
    if lam == 0:
        return VimSequence((frozenset(),), 1, g)
    first, last = _spans(g)
    bags = [set() for _ in range(lam + 1)]
    for x, f in first.items():
        for t in range(f, last[x] + 1):
            bags[t].add(x)
    bags[0] = bags[1]
    frozen = tuple(frozenset(b) for b in bags)
    return VimSequence(frozen, max(len(b) for b in frozen[1:]), g)


@dataclass(frozen=True)
class ConnectedVimResult:
    """A connected-VIM width together with its per-time bag lists.

    bags[t] lists, for each component C of G_d(t), the nonempty intersection
    V(C) & F_t as a sorted tuple, the tuples ordered by smallest member;
    bags[0] is always empty.
    """

    width: int
    bags: tuple


def connected_vim_width(g: TemporalGraph, direction: str, vs=None) -> ConnectedVimResult:
    """The d-connected-VIM width for d in {"le", "ge"}.

    G_d(t) grows by one snapshot per timestep, so one union-find, swept by
    time ascending (le) or descending (ge), holds its components throughout.
    A precomputed VimSequence of g may be passed to avoid recomputation;
    one built for another graph raises ValueError.
    """
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
    if vs is not None and vs.graph is not g and vs.graph != g:
        raise ValueError("vs was built for another graph than g")
    lam = g.lifetime
    if lam == 0:
        return ConnectedVimResult(1, ((),))
    if vs is None:
        vs = vim_sequence(g)
    root = list(range(g.n))
    per_time = [()] * (lam + 1)
    width = 1
    for t in range(1, lam + 1) if direction == "le" else range(lam, 0, -1):
        bags_t = tuple(_components_among(root, sorted(vs.bags[t]), g.edges_at(t)))
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

    The terms come from one union-find sweep per direction (see
    _swept_maxima) and |F_t| from a difference array over the vertices'
    first and last edge times.
    """
    lam = g.lifetime
    if lam == 0:
        return 1
    first, last = _spans(g)
    size = [0] * (lam + 2)
    starts, stops = {}, {}  # time -> the vertices whose interval starts, or stops, there
    for x, f in first.items():
        size[f] += 1
        size[last[x] + 1] -= 1
        starts.setdefault(f, []).append(x)
        stops.setdefault(last[x], []).append(x)
    for t in range(1, lam + 1):
        size[t] += size[t - 1]
    prefix_le = _swept_maxima(g, starts, stops, range(1, lam + 1))
    suffix_ge = _swept_maxima(g, stops, starts, range(lam, 0, -1))
    # the splits at t = 1 and t = Lambda take the whole suffix and prefix
    best = min(suffix_ge[1], prefix_le[lam])
    for t in range(2, lam):
        best = min(best, max(prefix_le[t - 1], suffix_ge[t + 1], size[t]))
    return max(best, 1)


def _swept_maxima(g, entering, leaving, times):
    """For each t of times, an order of [1, Lambda] that sweeps G_le (times
    ascending) or G_ge (descending): the largest |C & F_s| over the
    components C of the graph of the edges swept up to s, maximised over the
    s swept up to t; 0 before the first edge. entering[s] lists the
    vertices whose active interval the sweep meets first at s, leaving[s]
    those it leaves after s.

    Each root of the union-find counts its component's vertices in F_s: a
    vertex counts from the step of its first swept edge and stops counting
    after the step of its last. Within a step counts only rise, and each
    rise ends in a merge (an entering vertex is a root alone until its edge
    merges it), so the largest count any merge has left is the running
    maximum."""
    root = list(range(g.n))
    count = [0] * g.n
    out = [0] * (g.lifetime + 2)
    best = 0
    for t in times:
        edges = g.edges_at(t)
        if edges:
            for x in entering.get(t, ()):
                count[x] = 1
            best = max(best, _merge(root, edges, count))
            for x in leaving.get(t, ()):
                count[_find(root, x)] -= 1
        out[t] = best
    return out
