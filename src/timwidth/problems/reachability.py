"""Temporal reachability edge deletion (single source) for the TIM engine."""

from __future__ import annotations

from itertools import combinations

from ..tim_engine import TimProblemPlugin, solve_component_exchangeable
from .instances import TredInstance

REACHED, CURRENT, UNREACHED = "R", "N", "U"


def label_validity_deletions(labelling, comp) -> int:
    """Edges of the component joining a reached and an unreached vertex.

    Each such snapshot edge must be deleted for the labelling to hold.
    """
    state = dict(zip(comp.vertices, labelling))
    d = 0
    for u, v in comp.edges:
        pair = {state[u], state[v]}
        if pair == {REACHED, UNREACHED}:
            d += 1
    return d


class TredTimPlugin(TimProblemPlugin):
    """Vectors (deletions, newly reached) per timed component."""

    labels = (REACHED, CURRENT, UNREACHED)

    def arity(self, instance):
        return 2

    def counter_bound(self, instance):
        n = max(instance.graph.n, 1)
        return max(1, n * n)

    def v_upper(self, instance):
        return (instance.max_deletions, instance.max_reached)

    def check(self, labelling, comp, t, role, instance):
        if role == "start":
            for v, l in zip(comp.vertices, labelling):
                if l != (CURRENT if v == instance.source else UNREACHED):
                    return None
            return (0, 1) if instance.source in comp.vertices else (0, 0)
        return (label_validity_deletions(labelling, comp), labelling.count(CURRENT))

    def tr(self, prev_labelling, labelling, comp, instance):
        verts = comp.vertices
        r1 = {v for v, l in zip(verts, prev_labelling) if l == REACHED}
        n1 = {v for v, l in zip(verts, prev_labelling) if l == CURRENT}
        u1 = {v for v, l in zip(verts, prev_labelling) if l == UNREACHED}
        r2 = {v for v, l in zip(verts, labelling) if l == REACHED}
        n2 = {v for v, l in zip(verts, labelling) if l == CURRENT}
        if r2 != r1 | n1:
            return False
        adj = comp.adjacency
        frontier = set()
        for v in r2:
            frontier |= adj[v]
        # keeping any connecting edge makes a vertex newly reached; deleting
        # all of them leaves it unreached, so only containment is forced
        return n2 <= (u1 & frontier)

    def successors(self, prev_labelling, comp, instance):
        verts = comp.vertices
        r2 = {
            v
            for v, l in zip(verts, prev_labelling)
            if l in (REACHED, CURRENT)
        }
        u1 = [v for v, l in zip(verts, prev_labelling) if l == UNREACHED]
        adj = comp.adjacency
        frontier = [v for v in u1 if any(w in r2 for w in adj[v])]
        out = []
        for k in range(len(frontier) + 1):
            for chosen in combinations(frontier, k):
                chosen = set(chosen)
                lab = tuple(
                    REACHED
                    if v in r2
                    else (CURRENT if v in chosen else UNREACHED)
                    for v in verts
                )
                out.append(lab)
        return out


def tred_tim_plugin() -> TredTimPlugin:
    return TredTimPlugin()


def solve_tred(inst: TredInstance, **kwargs):
    g = inst.graph
    if inst.source < 0 or inst.source >= g.n:
        raise ValueError("source out of range")
    if inst.max_reached < 0 or inst.max_deletions < 0:
        raise ValueError("bounds must be nonnegative")
    if not g.time_edges:
        return 1 <= inst.max_reached, []
    res = solve_component_exchangeable(tred_tim_plugin(), inst, **kwargs)
    return res.answer, [res]
