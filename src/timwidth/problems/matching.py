"""Delta-temporal matching plugin for the TIM engine."""

from __future__ import annotations

from itertools import product

from ..tim_engine import TimProblemPlugin, solve_component_exchangeable
from .instances import MatchingInstance


def matched_label(delta):
    return (1, delta, delta)


def has_perfect_matching(vertices, edges) -> bool:
    """Perfect matching among `vertices` using only the given edges.

    Memoised bitmask recursion; exact for the component sizes a TIM bag can
    produce.
    """
    verts = sorted(vertices)
    if len(verts) % 2:
        return False
    if not verts:
        return True
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    vset = set(verts)
    for u, v in edges:
        if u in vset and v in vset:
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
    full = (1 << len(verts)) - 1
    memo = {}

    def rec(mask):
        if mask == 0:
            return True
        if mask in memo:
            return memo[mask]
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        ok = False
        partners = adj[low] & rest
        while partners:
            p = (partners & -partners).bit_length() - 1
            partners &= partners - 1
            if rec(rest & ~(1 << p)):
                ok = True
                break
        memo[mask] = ok
        return ok

    return rec(full)


def matched_sets(comp):
    """Bitmasks over comp's vertex positions of the vertex sets that some
    matching of comp's edges covers, each once."""
    k = len(comp.vertices)
    idx = comp.index
    adj = [0] * k
    for u, v in comp.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    out = set()

    def rec(i, used):
        # positions below i are decided; i is left unmatched or matched upward
        if i == k:
            out.add(used)
            return
        rec(i + 1, used)
        if not used >> i & 1:
            partners = adj[i] & ~used & ~((2 << i) - 1)
            while partners:
                p = partners & -partners
                partners ^= p
                rec(i + 1, used | 1 << i | p)

    rec(0, 0)
    return out


def _next_options(label, delta):
    """The labels that may follow label one timestep later."""
    if label == matched_label(delta):
        options = [(0, 1, max(1, delta - 1))]
        if delta == 1:
            options.append(matched_label(delta))
        return options
    _, a, b = label
    options = [(0, min(delta, a + 1), max(1, b - 1))]
    if b == 1 and a >= delta - 1:
        options.append(matched_label(delta))
    return options


class MatchingTimPlugin(TimProblemPlugin):
    """Labels (1,D,D) for currently matched vertices and (0,a,b) windows
    tracking how far a vertex is from its previous and next allowed match.

    The counter m is the negated count of matched time-edges per component.
    """

    def __init__(self, instance: MatchingInstance):
        self.delta = d = instance.delta
        # only labels reachable from a starting label through the transition
        # map; other (0, a, b) combinations cannot occur in a valid sequence
        out = [matched_label(d)]
        for b in range(1, d + 1):
            out.append((0, d, b))
        for a in range(1, d):
            out.append((0, a, max(1, d - a)))
        self.labels = tuple(dict.fromkeys(out))
        self.counter_bound = max(1, instance.graph.n // 2)
        self.v_upper = (-instance.size_target,)
        self._matchable = {}  # (edges, matched vertices) -> has_perfect_matching

    def check(self, labelling, comp, role):
        d = self.delta
        if role == "start":
            return (0,) if all(l[0] == 0 and l[1] == d for l in labelling) else None
        m = matched_label(d)
        matched = tuple(v for v, l in zip(comp.vertices, labelling) if l == m)
        # successors yields many labellings with one matched set; the answer
        # reads only that set and the edges, so each pair is tested once
        key = (comp.edges, matched)
        ok = self._matchable.get(key)
        if ok is None:
            ok = self._matchable[key] = has_perfect_matching(matched, comp.edges)
        if not ok:
            return None
        return (-(len(matched) // 2),)

    def assignments(self, comp, role):
        d = self.delta
        labels = self.labels
        k = len(comp.vertices)
        if role == "start":
            starts = [l for l in labels if l[0] == 0 and l[1] == d]
            return [(labelling, (0,)) for labelling in product(starts, repeat=k)]
        # the matched vertices are those a matching of the edges covers; every
        # other vertex takes any other label
        m = matched_label(d)
        others = [l for l in labels if l != m]
        out = []
        for mask in matched_sets(comp):
            free = [i for i in range(k) if not mask >> i & 1]
            vec = (-((k - len(free)) // 2),)
            labelling = [m] * k
            for rest in product(others, repeat=len(free)):
                for i, l in zip(free, rest):
                    labelling[i] = l
                out.append((tuple(labelling), vec))
        return out

    def successors(self, prev_labelling, comp):
        d = self.delta
        return list(product(*(_next_options(l, d) for l in prev_labelling)))


def solve_matching(inst: MatchingInstance, **kwargs):
    """Decide delta-temporal matching; returns (answer, TIM result or None if it did not run)."""
    if inst.delta < 1:
        raise ValueError("delta must be >= 1")
    if inst.size_target <= 0:
        return True, None
    if not inst.graph.time_edges:
        return False, None
    res = solve_component_exchangeable(MatchingTimPlugin(inst), inst.graph, **kwargs)
    return res.answer, res
