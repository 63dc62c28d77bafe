import random

import pytest

from timwidth.core import TemporalGraph, Snapshot, shift_graph, snapshot
from timwidth.generators import gen_hard_ham_path
from timwidth.oracles import oracle_ham
from timwidth.problems import HamiltonianInstance, ham_tim_plugin, ham_vim_plugin, solve_hamiltonian
from timwidth.problems.hamiltonian import HamiltonianVimPlugin
from timwidth.tim_engine import ComponentGraph
from timwidth.vim_engine import KXState, solve_locally_uniform
from timwidth.widths import vim_sequence

from .conftest import random_graph


def state(labels, h):
    return KXState.make(labels, (h,), "U")


def test_vim_transition_move():
    plugin = ham_vim_plugin()
    snap = Snapshot(2, 1, ((0, 1),))
    s1 = state({0: "C"}, 1)
    assert plugin.transition(s1, {0: "V", 1: "C"}, snap) == (2,)
    # the current vertex may not move onto a visited vertex
    assert plugin.transition(state({0: "C", 1: "V"}, 2), {0: "V", 1: "C"}, snap) is None


def test_vim_transition_identity():
    plugin = ham_vim_plugin()
    snap = Snapshot(2, 1, ())
    s1 = state({0: "C"}, 1)
    assert plugin.transition(s1, {0: "C"}, snap) == (1,)
    # a move needs a snapshot edge
    assert plugin.transition(s1, {0: "V", 1: "C"}, snap) is None


def test_vim_start_over_snapshot_edge():
    plugin = ham_vim_plugin()
    snap = Snapshot(3, 1, ((0, 1),))
    start = state({}, 0)
    assert plugin.transition(start, {0: "V", 1: "C"}, snap) == (2,)
    assert plugin.transition(start, {1: "V", 0: "C"}, snap) == (2,)
    # a non-edge of the snapshot
    assert plugin.transition(start, {0: "V", 2: "C"}, snap) is None
    # a start must take its first edge in the same step
    assert plugin.transition(start, {1: "C"}, snap) is None
    # not starting is always allowed
    assert plugin.transition(start, {}, snap) == (0,)


def test_vim_start_counters():
    plugin = ham_vim_plugin()
    inst = HamiltonianInstance(TemporalGraph(3, [(0, 1, 1)]))
    assert plugin.initial_states(inst) == [state({}, 0)]
    assert plugin.counter_ranges(inst) == ((0, 3),)
    assert plugin.transition(state({}, 0), {0: "V", 1: "C"}, snapshot(inst.graph, 1)) == (2,)


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
    assert ("V", "C") in plugin.successors(("C", "U"), comp, inst)
    assert ("C", "C") not in plugin.successors(("C", "U"), comp, inst)
    assert ("V", "C") in plugin.successors(("V", "C"), comp, inst)


def test_single_vertex_and_edgeless():
    assert solve_hamiltonian(TemporalGraph(1, []), "vim")[0]
    assert solve_hamiltonian(TemporalGraph(1, []), "tim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "vim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "tim")[0]


def test_unknown_engine_rejected_before_shortcuts():
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        solve_hamiltonian(TemporalGraph(1, []), "bogus")


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


class StartOnF0Plugin(HamiltonianVimPlugin):
    """The per-start-time formulation: the path starts as C on F_0 with h = 1."""

    def initial_states(self, instance):
        f0 = vim_sequence(instance.graph).bags[0]
        return [state({v: "C"}, 1) for v in sorted(f0)]


def solve_per_shift(g):
    """Hamiltonian VIM by one engine run per start time, each on the graph
    with the earlier time-edges dropped."""
    for shift in range(g.lifetime):
        shifted = shift_graph(g, shift + 1)
        if len(shifted.time_edges) >= g.n - 1:
            if solve_locally_uniform(StartOnF0Plugin(), HamiltonianInstance(shifted)).answer:
                return True
    return False


def test_one_run_matches_per_shift_runs():
    rng = random.Random(4242)
    graphs = [random_graph(rng, n_max=6, lam_max=5, n_min=2) for _ in range(200)]
    graphs.append(gen_hard_ham_path(8))
    yes = sparse = 0
    for g in graphs:
        answer, runs = solve_hamiltonian(g, "vim")
        assert answer == solve_per_shift(g), g
        assert len(runs) <= 1
        if len(g.time_edges) < g.n - 1:
            assert runs == []
            sparse += 1
        yes += answer
    assert yes >= 20 and sparse >= 10
