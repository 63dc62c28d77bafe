"""Temporal firefighter (reserve form) plugins and the solver entry point."""

from __future__ import annotations

from ..core import shift_graph
from ..tim_engine import TimProblemPlugin, solve_component_exchangeable
from ..vim_engine import KXState, VimProblemPlugin, solve_locally_uniform
from .instances import FirefighterInstance

BURNING, DEFENDED, UNBURNT, NEWDEF = "B", "D", "U", "N"


def normalize_firefighter(inst: FirefighterInstance) -> FirefighterInstance:
    """Shift times so the root's first incident edge is at timestep 1.

    The skipped timesteps are converted into starting budget; time-edges
    active before the root's first activity cannot influence the game and
    are dropped.
    """
    g = inst.graph
    incident = [t for u, v, t in g.time_edges if inst.root in (u, v)]
    if not incident:
        raise ValueError("root has no incident time-edge; instance is trivial")
    t0 = min(incident)
    return FirefighterInstance(
        shift_graph(g, t0), inst.root, inst.saves_target, start_budget=t0
    )


class FirefighterVimPlugin(VimProblemPlugin):
    """Counters (burnt, budget); defences spend budget on active unburnt
    vertices before the fire spreads over the snapshot."""

    labels = (BURNING, DEFENDED, UNBURNT)
    default_label = UNBURNT
    counter_arity = 2

    def counter_ranges(self, instance):
        n = max(instance.graph.n, 1)
        return ((1, n), (1, instance.start_budget + instance.graph.lifetime))

    def initial_states(self, instance, f0):
        return [
            KXState.make(
                {instance.root: BURNING}, (1, instance.start_budget), UNBURNT
            )
        ]

    def transition(self, prev, new, snap):
        b1, d1 = prev.labelled(BURNING), prev.labelled(DEFENDED)
        b2, d2 = new.labelled(BURNING), new.labelled(DEFENDED)
        if not d1 <= d2:
            return False
        newly = d2 - d1
        if not newly <= snap.active_vertices:
            return False
        if any(prev.label(v) != UNBURNT for v in newly):
            return False
        h1, bud1 = prev.counters
        h2, bud2 = new.counters
        if bud2 != bud1 - len(newly) + 1 or bud2 < 1:
            return False
        adj = snap.adjacency
        closed = set(b1)
        for v in b1:
            closed |= adj.get(v, frozenset())
        if b2 != closed - d2:
            return False
        return h2 == h1 + len(b2 - b1)

    def accept(self, state, instance):
        return instance.graph.n - state.counters[0] >= instance.saves_target

    def counter_candidates(self, prev, label_map, snap, instance):
        d1 = prev.labelled(DEFENDED)
        b1 = prev.labelled(BURNING)
        d2 = {v for v, l in label_map.items() if l == DEFENDED}
        b2 = {v for v, l in label_map.items() if l == BURNING}
        h1, bud1 = prev.counters
        return ((h1 + len(b2 - b1), bud1 - len(d2 - d1) + 1),)


def ff_vim_plugin() -> FirefighterVimPlugin:
    return FirefighterVimPlugin()


class FirefighterTimPlugin(TimProblemPlugin):
    """Vectors (s, d_1..d_Lambda, d'): saved count (negated, final snapshot
    only), cumulative-defence entries, and per-step defence count."""

    labels = (BURNING, UNBURNT, NEWDEF, DEFENDED)

    def arity(self, instance):
        return instance.graph.lifetime + 2

    def counter_bound(self, instance):
        return max(instance.graph.n, 1)

    def v_upper(self, instance):
        lam = instance.graph.lifetime
        beta = instance.start_budget
        return (
            (-instance.saves_target,)
            + tuple(beta + i for i in range(lam))
            + (beta + lam - 1,)
        )

    def check(self, labelling, comp, t, role, instance):
        lam = instance.graph.lifetime
        d = labelling.count(NEWDEF)
        if role == "start":
            for v, l in zip(comp.vertices, labelling):
                if l != (BURNING if v == instance.root else UNBURNT):
                    return None
            return (0,) * (lam + 2)
        if role == "fin":
            saved = sum(1 for l in labelling if l != BURNING)
            return (-saved,) + (0,) * (lam - 1) + (d, d)
        return (0,) + tuple(0 if i < t else d for i in range(1, lam + 1)) + (d,)

    def tr(self, prev_labelling, labelling, comp, instance):
        verts = comp.vertices

        def sets(lab):
            out = {BURNING: set(), UNBURNT: set(), NEWDEF: set(), DEFENDED: set()}
            for v, l in zip(verts, lab):
                out[l].add(v)
            return out

        s1, s2 = sets(prev_labelling), sets(labelling)
        if s2[DEFENDED] != s1[DEFENDED] | s1[NEWDEF]:
            return False
        adj = comp.adjacency
        spread = set()
        for v in s1[BURNING]:
            spread |= adj[v]
        blocked = s2[DEFENDED] | s2[NEWDEF]
        if s2[BURNING] != s1[BURNING] | (spread - blocked):
            return False
        return (s2[UNBURNT] | s2[NEWDEF]) <= s1[UNBURNT]

    def successors(self, prev_labelling, comp, instance):
        from itertools import combinations

        verts = comp.vertices
        idx = comp.index
        adj = comp.adjacency
        b1 = [v for v, l in zip(verts, prev_labelling) if l == BURNING]
        u1 = [v for v, l in zip(verts, prev_labelling) if l == UNBURNT]
        base = {}
        for v, l in zip(verts, prev_labelling):
            if l in (DEFENDED, NEWDEF):
                base[v] = DEFENDED
        out = []
        for k in range(len(u1) + 1):
            for chosen in combinations(u1, k):
                lab = dict(base)
                for v in chosen:
                    lab[v] = NEWDEF
                burning = set(b1)
                for v in b1:
                    for w in adj[v]:
                        if w not in lab and w not in burning:
                            burning.add(w)
                for v in burning:
                    lab[v] = BURNING
                out.append(tuple(lab.get(v, UNBURNT) for v in verts))
        return out


def ff_tim_plugin() -> FirefighterTimPlugin:
    return FirefighterTimPlugin()


def solve_firefighter(inst: FirefighterInstance, engine="vim", **kwargs):
    """Decide reserve temporal firefighter; returns (answer, engine runs)."""
    g = inst.graph
    if inst.root < 0 or inst.root >= g.n:
        raise ValueError("root out of range")
    if not any(inst.root in (u, v) for u, v, _ in g.time_edges):
        return g.n - 1 >= inst.saves_target, []
    norm = normalize_firefighter(inst)
    if engine == "vim":
        res = solve_locally_uniform(ff_vim_plugin(), norm, **kwargs)
    elif engine == "tim":
        res = solve_component_exchangeable(ff_tim_plugin(), norm, **kwargs)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return res.answer, [res]
