"""Temporal firefighter (reserve form) plugins and the solver entry point."""

from __future__ import annotations

from itertools import combinations

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

    def __init__(self, instance: FirefighterInstance):
        g = instance.graph
        self.max_burnt = g.n - instance.saves_target
        self.counter_ranges = ((1, max(g.n, 1)), (1, instance.start_budget + g.lifetime))
        self.initial_states = (
            KXState.make({instance.root: BURNING}, (1, instance.start_budget), UNBURNT),
        )

    def transition(self, prev, labels, snap):
        b1, d1 = prev.labelled(BURNING), prev.labelled(DEFENDED)
        b2 = {v for v, l in labels.items() if l == BURNING}
        d2 = {v for v, l in labels.items() if l == DEFENDED}
        if not d1 <= d2:
            return None
        newly = d2 - d1
        adj = snap.adjacency
        # only unburnt active vertices, the keys of adj, may be newly defended
        if any(v not in adj or prev.label(v) != UNBURNT for v in newly):
            return None
        h1, bud1 = prev.counters
        bud2 = bud1 - len(newly) + 1
        if bud2 < 1:
            return None
        closed = set(b1)
        for v in b1:
            closed |= adj.get(v, frozenset())
        if b2 != closed - d2:
            return None
        return (h1 + len(b2 - b1), bud2)

    def accept(self, state):
        return state.counters[0] <= self.max_burnt


class FirefighterTimPlugin(TimProblemPlugin):
    """Vectors (s, d_1..d_Lambda), Lambda + 1 entries: the saved count,
    negated and set on the final snapshot only, then the cumulative-defence
    entries, d_i counting the defences made at times up to i. d_Lambda is
    the total, which the budget caps at start_budget + Lambda - 1."""

    labels = (BURNING, UNBURNT, NEWDEF, DEFENDED)

    def __init__(self, instance: FirefighterInstance):
        g = instance.graph
        self.root = instance.root
        self.lifetime = lam = g.lifetime
        self.counter_bound = max(g.n, 1)
        beta = instance.start_budget
        self.v_upper = (-instance.saves_target,) + tuple(beta + i for i in range(lam))

    def check(self, labelling, comp, role):
        lam = self.lifetime
        if role == "start":
            for v, l in zip(comp.vertices, labelling):
                if l != (BURNING if v == self.root else UNBURNT):
                    return None
            return (0,) * (lam + 1)
        saved = sum(1 for l in labelling if l != BURNING) if role == "fin" else 0
        d = labelling.count(NEWDEF)
        return (-saved,) + tuple(0 if i < comp.t else d for i in range(1, lam + 1))

    def assignments(self, comp, role):
        if role == "start":
            labelling = tuple(BURNING if v == self.root else UNBURNT for v in comp.vertices)
            return [(labelling, (0,) * (self.lifetime + 1))]
        # val and fin admit every labelling
        return super().assignments(comp, role)

    def successors(self, prev_labelling, comp):
        verts = comp.vertices
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


def solve_firefighter(inst: FirefighterInstance, engine="vim", **kwargs):
    """Decide reserve temporal firefighter; returns (answer, engine result or None if none ran)."""
    g = inst.graph
    if engine not in ("vim", "tim"):
        raise ValueError(f"unknown engine {engine!r}")
    if inst.root < 0 or inst.root >= g.n:
        raise ValueError("root out of range")
    if not any(inst.root in (u, v) for u, v, _ in g.time_edges):
        return g.n - 1 >= inst.saves_target, None
    norm = normalize_firefighter(inst)
    if engine == "vim":
        res = solve_locally_uniform(FirefighterVimPlugin(norm), norm.graph, **kwargs)
    else:
        res = solve_component_exchangeable(FirefighterTimPlugin(norm), norm.graph, **kwargs)
    return res.answer, res
