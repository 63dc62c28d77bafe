"""Temporal Hamiltonian path plugins for both engines."""

from __future__ import annotations

from ..core import shift_graph
from ..tim_engine import TimProblemPlugin, solve_component_exchangeable
from ..vim_engine import KXState, VimProblemPlugin, solve_locally_uniform
from .instances import HamiltonianInstance

VISITED, UNVISITED, CURRENT = "V", "U", "C"


class HamiltonianVimPlugin(VimProblemPlugin):
    """One counter h tracks path length; the current endpoint walks over
    snapshot edges onto unvisited vertices."""

    labels = (VISITED, UNVISITED, CURRENT)
    default_label = UNVISITED
    counter_arity = 1

    def counter_ranges(self, instance):
        return ((1, max(instance.graph.n, 1)),)

    def initial_states(self, instance, f0):
        return [
            KXState.make({v: CURRENT}, (1,), self.default_label) for v in sorted(f0)
        ]

    def transition(self, prev, new, snap):
        c1, c2 = prev.labelled(CURRENT), new.labelled(CURRENT)
        gone, arrived = c1 - c2, c2 - c1
        if len(gone) == 1 and len(arrived) == 1:
            a, b = next(iter(gone)), next(iter(arrived))
            if (
                snap.has_edge(a, b)
                and prev.label(b) == UNVISITED
                and new.counters[0] == prev.counters[0] + 1
                and prev.labelled(VISITED) | {a} == new.labelled(VISITED)
            ):
                return True
        return prev.labels == new.labels and prev.counters == new.counters

    def accept(self, state, instance):
        return state.counters[0] == instance.graph.n

    def counter_candidates(self, prev, label_map, snap, instance):
        h = prev.counters[0]
        if h < instance.graph.n:
            return ((h,), (h + 1,))
        return ((h,),)


def ham_vim_plugin() -> HamiltonianVimPlugin:
    return HamiltonianVimPlugin()


class HamiltonianTimPlugin(TimProblemPlugin):
    """Component states carry the count of current locations per snapshot."""

    labels = (VISITED, UNVISITED, CURRENT)

    def arity(self, instance):
        return 1

    def counter_bound(self, instance):
        return 1

    def v_upper(self, instance):
        # one current location per timestep 0..Lambda
        return (instance.graph.lifetime + 1,)

    def check(self, labelling, comp, t, role, instance):
        cur = labelling.count(CURRENT)
        if cur > 1:
            return None
        if role == "start" and VISITED in labelling:
            return None
        if role == "fin" and UNVISITED in labelling:
            return None
        return (cur,)

    def tr(self, prev_labelling, labelling, comp, instance):
        if prev_labelling == labelling:
            return True
        verts = comp.vertices
        c1 = {v for v, l in zip(verts, prev_labelling) if l == CURRENT}
        c2 = {v for v, l in zip(verts, labelling) if l == CURRENT}
        gone, arrived = c1 - c2, c2 - c1
        if len(gone) != 1 or len(arrived) != 1:
            return False
        a, b = next(iter(gone)), next(iter(arrived))
        e = (a, b) if a < b else (b, a)
        if e not in comp.edges:
            return False
        idx = comp.index
        if prev_labelling[idx[b]] != UNVISITED:
            return False
        v1 = {v for v, l in zip(verts, prev_labelling) if l == VISITED}
        v2 = {v for v, l in zip(verts, labelling) if l == VISITED}
        return v1 | {a} == v2

    def successors(self, prev_labelling, comp, instance):
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


def ham_tim_plugin() -> HamiltonianTimPlugin:
    return HamiltonianTimPlugin()


def solve_hamiltonian(g, engine="vim", **kwargs):
    """Decide Temporal Hamiltonian Path; returns (answer, engine runs)."""
    if g.n <= 1:
        return True, []
    if not g.time_edges:
        return False, []
    if engine == "tim":
        res = solve_component_exchangeable(
            ham_tim_plugin(), HamiltonianInstance(g), **kwargs
        )
        return res.answer, [res]
    if engine != "vim":
        raise ValueError(f"unknown engine {engine!r}")
    runs = []
    plugin = ham_vim_plugin()
    for shift in range(g.lifetime):
        shifted = shift_graph(g, shift + 1)
        if len(shifted.time_edges) < g.n - 1:
            continue
        res = solve_locally_uniform(plugin, HamiltonianInstance(shifted), **kwargs)
        runs.append(res)
        if res.answer:
            return True, runs
    return False, runs
