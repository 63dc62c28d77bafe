"""Delta-temporal matching plugin for the TIM engine."""

from __future__ import annotations

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


class MatchingTimPlugin(TimProblemPlugin):
    """Labels (1,D,D) for currently matched vertices and (0,a,b) windows
    tracking how far a vertex is from its previous and next allowed match.

    The counter m is the negated count of matched time-edges per component.
    """

    def label_set(self, instance):
        # only labels reachable from a starting label through the transition
        # map; other (0, a, b) combinations cannot occur in a valid sequence
        d = instance.delta
        out = [matched_label(d)]
        for b in range(1, d + 1):
            out.append((0, d, b))
        for a in range(1, d):
            out.append((0, a, max(1, d - a)))
        return tuple(dict.fromkeys(out))

    def arity(self, instance):
        return 1

    def counter_bound(self, instance):
        return max(1, instance.graph.n // 2)

    def v_upper(self, instance):
        return (-instance.size_target,)

    def check(self, labelling, comp, t, role, instance):
        d = instance.delta
        if role == "start":
            return (0,) if all(l[0] == 0 and l[1] == d for l in labelling) else None
        m = matched_label(d)
        matched = [v for v, l in zip(comp.vertices, labelling) if l == m]
        if not has_perfect_matching(matched, comp.edges):
            return None
        return (-(len(matched) // 2),)

    def _next_options(self, label, delta):
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

    def tr(self, prev_labelling, labelling, comp, instance):
        d = instance.delta
        for before, after in zip(prev_labelling, labelling):
            if after not in self._next_options(before, d):
                return False
        return True

    def successors(self, prev_labelling, comp, instance):
        d = instance.delta
        per_vertex = [self._next_options(l, d) for l in prev_labelling]
        out = [[]]
        for options in per_vertex:
            out = [prefix + [o] for prefix in out for o in options]
        return [tuple(lab) for lab in out]


def matching_tim_plugin() -> MatchingTimPlugin:
    return MatchingTimPlugin()


def solve_matching(inst: MatchingInstance, **kwargs):
    if inst.delta < 1:
        raise ValueError("delta must be >= 1")
    if inst.size_target <= 0:
        return True, []
    if not inst.graph.time_edges:
        return False, []
    res = solve_component_exchangeable(matching_tim_plugin(), inst, **kwargs)
    return res.answer, [res]
