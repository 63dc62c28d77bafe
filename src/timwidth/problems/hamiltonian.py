"""Temporal Hamiltonian path plugins for both engines."""

from __future__ import annotations

from itertools import product

from ..tim_engine import TimProblemPlugin, solve_component_exchangeable
from ..vim_engine import KXState, VimProblemPlugin, solve_locally_uniform
from .instances import HamiltonianInstance

VISITED, UNVISITED, CURRENT = "V", "U", "C"


class HamiltonianVimPlugin(VimProblemPlugin):
    """One counter h tracks path length; the current endpoint walks over
    snapshot edges onto unvisited vertices. The initial state (no labels,
    h = 0) is the path not started yet. Starting goes to h = 2 and labels a V,
    b C for a snapshot edge (a, b): a strict path's first edge fixes its
    start time, so one run covers every start. successors generates those
    steps instead of testing every labelling of A_t; transition specifies
    them."""

    labels = (VISITED, UNVISITED, CURRENT)
    default_label = UNVISITED

    def __init__(self, instance: HamiltonianInstance):
        self.n = instance.graph.n
        self.counter_ranges = ((0, max(self.n, 1)),)
        self.initial_states = (KXState.make({}, (0,), UNVISITED),)

    def transition(self, prev, labels, snap):
        h = prev.counters[0]
        c2 = {v for v, l in labels.items() if l == CURRENT}
        v2 = {v for v, l in labels.items() if l == VISITED}
        adj = snap.adjacency
        if h == 0:
            if len(v2) == len(c2) == 1 and next(iter(c2)) in adj.get(next(iter(v2)), ()):
                return (2,)
        else:
            c1 = prev.labelled(CURRENT)
            gone, arrived = c1 - c2, c2 - c1
            if len(gone) == 1 and len(arrived) == 1:
                a, b = next(iter(gone)), next(iter(arrived))
                if (
                    b in adj.get(a, ())
                    and prev.label(b) == UNVISITED
                    and prev.labelled(VISITED) | {a} == v2
                ):
                    return (h + 1,)
        return prev.counters if labels == prev.label_dict() else None

    def successors(self, prev, snap):
        labels = prev.label_dict()
        h = prev.counters[0]
        yield labels, prev.counters
        if h == 0:
            for a, b in snap.edges:
                yield {a: VISITED, b: CURRENT}, (2,)
                yield {b: VISITED, a: CURRENT}, (2,)
            return
        adj = snap.adjacency
        for a in prev.labelled(CURRENT):
            for b in adj.get(a, ()):
                if b not in labels:
                    step = dict(labels)
                    step[a] = VISITED
                    step[b] = CURRENT
                    yield step, (h + 1,)

    def step_bound(self, snap):
        # the stay, then two starts per edge, or a move per edge end at a C
        return 1 + 2 * len(snap.edges)

    def accept(self, state):
        return state.counters[0] == self.n


class HamiltonianTimPlugin(TimProblemPlugin):
    """Component states carry the count of current locations per snapshot."""

    labels = (VISITED, UNVISITED, CURRENT)
    counter_bound = 1

    def __init__(self, instance: HamiltonianInstance):
        # one current location per timestep 0..Lambda
        self.v_upper = (instance.graph.lifetime + 1,)
        # every entry counts current locations, never negative, and v_upper
        # names no target
        self.total_cap = self.v_upper

    def check(self, labelling, comp, role):
        cur = labelling.count(CURRENT)
        if cur > 1:
            return None
        if role == "start" and VISITED in labelling:
            return None
        if role == "fin" and UNVISITED in labelling:
            return None
        return (cur,)

    def assignments(self, comp, role):
        # at most one C; the other vertices avoid V at start and U at fin
        rest = {"start": (UNVISITED,), "fin": (VISITED,)}.get(role, (VISITED, UNVISITED))
        k = len(comp.vertices)
        out = [(labelling, (0,)) for labelling in product(rest, repeat=k)]
        for i in range(k):
            for others in product(rest, repeat=k - 1):
                out.append((others[:i] + (CURRENT,) + others[i:], (1,)))
        return out

    def successors(self, prev_labelling, comp):
        out = [prev_labelling]
        verts = comp.vertices
        idx = comp.index
        adj = comp.adjacency
        for a, la in zip(verts, prev_labelling):
            if la != CURRENT:
                continue
            for b in adj[a]:
                if prev_labelling[idx[b]] != UNVISITED:
                    continue
                nxt = list(prev_labelling)
                nxt[idx[a]] = VISITED
                nxt[idx[b]] = CURRENT
                out.append(tuple(nxt))
        return out


def solve_hamiltonian(g, engine="vim", **kwargs):
    """Decide Temporal Hamiltonian Path; returns (answer, engine result or None if none ran)."""
    if engine not in ("vim", "tim"):
        raise ValueError(f"unknown engine {engine!r}")
    if g.n <= 1:
        return True, None
    # a strict temporal path through n vertices takes n - 1 time-edges
    if len(g.time_edges) < g.n - 1:
        return False, None
    inst = HamiltonianInstance(g)
    if engine == "tim":
        res = solve_component_exchangeable(HamiltonianTimPlugin(inst), g, **kwargs)
    else:
        res = solve_locally_uniform(HamiltonianVimPlugin(inst), g, **kwargs)
    return res.answer, res
