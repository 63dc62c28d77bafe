"""VIM sequence and the connected-VIM width variants."""

from __future__ import annotations

from dataclasses import dataclass

from .core import TemporalGraph, _components_among


@dataclass(frozen=True)
class VimSequence:
    """Bags F_0..F_Lambda of a temporal graph and its VIM width.

    F_t holds the vertices inside their active interval at time t; by
    convention F_0 = F_1. The width is max |F_t| over t in [1, Lambda], or
    1 for edgeless graphs. The active set A_t is snapshot(g, t).vertices.
    """

    bags: tuple
    width: int


def vim_sequence(g: TemporalGraph) -> VimSequence:
    lam = g.lifetime
    if lam == 0:
        return VimSequence((frozenset(),), 1)
    # time_edges run in time order, so a vertex's first and last edge times
    # are the first and last seen
    first = {}
    last = {}
    for u, v, t in g.time_edges:
        for x in (u, v):
            first.setdefault(x, t)
            last[x] = t
    bags = [set() for _ in range(lam + 1)]
    for x, f in first.items():
        for t in range(f, last[x] + 1):
            bags[t].add(x)
    bags[0] = bags[1]
    frozen = tuple(frozenset(b) for b in bags)
    return VimSequence(frozen, max(len(b) for b in frozen[1:]))


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
    A precomputed VimSequence may be passed to avoid recomputation.
    """
    if direction not in ("le", "ge"):
        raise ValueError("direction must be 'le' or 'ge'")
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
    """
    lam = g.lifetime
    if lam == 0:
        return 1
    vs = vim_sequence(g)
    # largest |component of G_d(t) intersected with F_t| for each t
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
