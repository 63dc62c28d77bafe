from timwidth.core import TemporalGraph, Snapshot
from timwidth.oracles import oracle_ham
from timwidth.problems import HamiltonianInstance, ham_tim_plugin, ham_vim_plugin, solve_hamiltonian
from timwidth.tim_engine import ComponentGraph
from timwidth.vim_engine import KXState

from .conftest import random_graph


def state(labels, h):
    return KXState.make(labels, (h,), "U")


def test_vim_transition_move():
    plugin = ham_vim_plugin()
    snap = Snapshot(2, 1, ((0, 1),))
    s1 = state({0: "C"}, 1)
    s2 = state({0: "V", 1: "C"}, 2)
    assert plugin.transition(s1, s2, snap)
    # same move with h unchanged is rejected
    assert not plugin.transition(s1, state({0: "V", 1: "C"}, 1), snap)


def test_vim_transition_identity():
    plugin = ham_vim_plugin()
    snap = Snapshot(2, 1, ())
    s1 = state({0: "C"}, 1)
    assert plugin.transition(s1, s1, snap)
    assert not plugin.transition(s1, state({0: "C"}, 2), snap)


def test_tim_st_examples():
    plugin = ham_tim_plugin()
    comp = ComponentGraph(1, (0, 1), ((0, 1),))
    inst = HamiltonianInstance(TemporalGraph(2, [(0, 1, 1)]))
    assert plugin.check(("C", "U"), comp, 0, "start", inst) == (1,)
    assert plugin.check(("C", "C"), comp, 0, "start", inst) is None
    assert plugin.check(("V", "U"), comp, 0, "start", inst) is None


def test_tim_transition_example():
    plugin = ham_tim_plugin()
    comp = ComponentGraph(1, (0, 1), ((0, 1),))
    inst = HamiltonianInstance(TemporalGraph(2, [(0, 1, 1)]))
    assert plugin.tr(("C", "U"), ("V", "C"), comp, inst)
    assert not plugin.tr(("C", "U"), ("C", "C"), comp, inst)
    assert plugin.tr(("V", "C"), ("V", "C"), comp, inst)


def test_single_vertex_and_edgeless():
    assert solve_hamiltonian(TemporalGraph(1, []), "vim")[0]
    assert solve_hamiltonian(TemporalGraph(1, []), "tim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "vim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "tim")[0]


def test_late_start_needs_shift_wrapper():
    # the only hamiltonian path starts at time 3, outside F_1
    g = TemporalGraph(3, [(0, 1, 1), (0, 1, 3), (1, 2, 4)])
    assert oracle_ham(g)
    assert solve_hamiltonian(g, "vim")[0]
    assert solve_hamiltonian(g, "tim")[0]


def test_engines_match_oracle(rng):
    for _ in range(60):
        g = random_graph(rng, n_max=6, lam_max=4)
        expected = oracle_ham(g)
        assert solve_hamiltonian(g, "vim")[0] == expected, g
        assert solve_hamiltonian(g, "tim")[0] == expected, g


def test_successor_generator_matches_full_enumeration(rng):
    plugin = ham_tim_plugin()
    inst = HamiltonianInstance(TemporalGraph(4, [(0, 1, 1)]))
    import itertools

    for _ in range(40):
        k = rng.randint(1, 3)
        verts = tuple(range(k))
        pool = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges = tuple(e for e in pool if rng.random() < 0.6)
        comp = ComponentGraph(1, verts, edges)
        prev = tuple(rng.choice("VUC") for _ in verts)
        fast = set(plugin.successors(prev, comp, inst))
        slow = {
            lab
            for lab in itertools.product(plugin.labels, repeat=k)
            if plugin.tr(prev, lab, comp, inst)
        }
        assert slow <= fast
