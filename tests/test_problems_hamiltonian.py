import random
from itertools import product

import pytest

from timwidth.core import TemporalGraph, shift_graph, snapshot
from timwidth.generators import gen_hard_ham_path, gen_ordered_tree, gen_random
from timwidth.oracles import oracle_ham
from timwidth.problems import HamiltonianInstance, solve_hamiltonian
from timwidth.problems.hamiltonian import HamiltonianTimPlugin, HamiltonianVimPlugin
from timwidth.tim_engine import ComponentGraph, TwoStepStructure, solve_component_exchangeable
from timwidth.vim_engine import KXState, ResourceLimitError, VimProblemPlugin, solve_locally_uniform
from timwidth.widths import vim_sequence

from .conftest import random_graph


def state(labels, h):
    return KXState.make(labels, (h,), "U")


def test_vim_transition_move():
    g = TemporalGraph(2, [(0, 1, 1)])
    plugin = HamiltonianVimPlugin(HamiltonianInstance(g))
    snap = snapshot(g, 1)
    s1 = state({0: "C"}, 1)
    assert plugin.transition(s1, {0: "V", 1: "C"}, snap) == (2,)
    # the current vertex may not move onto a visited vertex
    assert plugin.transition(state({0: "C", 1: "V"}, 2), {0: "V", 1: "C"}, snap) is None


def test_vim_transition_identity():
    g = TemporalGraph(2, [(0, 1, 2)])
    plugin = HamiltonianVimPlugin(HamiltonianInstance(g))
    snap = snapshot(g, 1)
    s1 = state({0: "C"}, 1)
    assert plugin.transition(s1, {0: "C"}, snap) == (1,)
    # a move needs a snapshot edge
    assert plugin.transition(s1, {0: "V", 1: "C"}, snap) is None


def test_vim_start_over_snapshot_edge():
    g = TemporalGraph(3, [(0, 1, 1)])
    plugin = HamiltonianVimPlugin(HamiltonianInstance(g))
    snap = snapshot(g, 1)
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
    inst = HamiltonianInstance(TemporalGraph(3, [(0, 1, 1)]))
    plugin = HamiltonianVimPlugin(inst)
    assert plugin.initial_states == (state({}, 0),)
    assert plugin.counter_ranges == ((0, 3),)
    assert plugin.transition(state({}, 0), {0: "V", 1: "C"}, snapshot(inst.graph, 1)) == (2,)


def test_tim_st_examples():
    plugin = HamiltonianTimPlugin(HamiltonianInstance(TemporalGraph(2, [(0, 1, 1)])))
    comp = ComponentGraph(1, (0, 1), ((0, 1),))
    assert plugin.check(("C", "U"), comp, "start") == (1,)
    assert plugin.check(("C", "C"), comp, "start") is None
    assert plugin.check(("V", "U"), comp, "start") is None


def test_tim_transition_example():
    plugin = HamiltonianTimPlugin(HamiltonianInstance(TemporalGraph(2, [(0, 1, 1)])))
    comp = ComponentGraph(1, (0, 1), ((0, 1),))
    assert ("V", "C") in plugin.successors(("C", "U"), comp)
    assert ("C", "C") not in plugin.successors(("C", "U"), comp)
    assert ("V", "C") in plugin.successors(("V", "C"), comp)


def test_single_vertex_and_edgeless():
    assert solve_hamiltonian(TemporalGraph(1, []), "vim")[0]
    assert solve_hamiltonian(TemporalGraph(1, []), "tim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "vim")[0]
    assert not solve_hamiltonian(TemporalGraph(3, []), "tim")[0]


def test_too_few_time_edges_answer_no_without_a_run():
    # a strict temporal path through n vertices takes n - 1 time-edges
    graphs = [TemporalGraph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])]
    rng = random.Random(24)
    while len(graphs) < 20:
        g = random_graph(rng, n_max=7, lam_max=4, n_min=3)
        if len(g.time_edges) == g.n - 2:
            graphs.append(g)
    for g in graphs:
        assert not oracle_ham(g), g
        for engine in ("vim", "tim"):
            assert solve_hamiltonian(g, engine) == (False, None), (engine, g)


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

    def __init__(self, instance):
        super().__init__(instance)
        f0 = vim_sequence(instance.graph).bags[0]
        self.initial_states = [state({v: "C"}, 1) for v in sorted(f0)]


def solve_per_shift(g):
    """Hamiltonian VIM by one engine run per start time, each on the graph
    with the earlier time-edges dropped."""
    for shift in range(g.lifetime):
        shifted = shift_graph(g, shift + 1)
        if len(shifted.time_edges) >= g.n - 1:
            if solve_locally_uniform(StartOnF0Plugin(HamiltonianInstance(shifted)), shifted).answer:
                return True
    return False


def test_one_run_matches_per_shift_runs():
    rng = random.Random(4242)
    graphs = [random_graph(rng, n_max=6, lam_max=5, n_min=2) for _ in range(200)]
    graphs.append(gen_hard_ham_path(8))
    yes = sparse = 0
    for g in graphs:
        answer, result = solve_hamiltonian(g, "vim")
        assert answer == solve_per_shift(g), g
        if len(g.time_edges) < g.n - 1:
            assert result is None
            sparse += 1
        else:
            assert result.answer == answer
        yes += answer
    assert yes >= 20 and sparse >= 10


def test_generated_steps_are_exactly_tr():
    # from every state the engine keeps, including StartOnF0Plugin's initial
    # states, successors yields each step transition admits exactly once and
    # no more than step_bound of them
    rng = random.Random(2121)
    checked = 0
    for cls in (HamiltonianVimPlugin, StartOnF0Plugin):
        for _ in range(60):
            g = random_graph(rng, n_max=6, lam_max=5, n_min=2)
            vs = vim_sequence(g)
            plugin = cls(HamiltonianInstance(g))
            tables = solve_locally_uniform(plugin, g, record=True).tables
            for t, table in enumerate(tables[: g.lifetime], start=1):
                snap = snapshot(g, t)
                for kept in table:
                    prev = kept.restrict(vs.bags[t])
                    steps = [
                        (frozenset(labels.items()), counters)
                        for labels, counters in plugin.successors(prev, snap)
                    ]
                    spec = {
                        (frozenset(labels.items()), counters)
                        for labels, counters in VimProblemPlugin.successors(plugin, prev, snap)
                    }
                    assert len(steps) == len(set(steps)), (g, t, prev)
                    assert set(steps) == spec, (g, t, prev)
                    assert len(steps) <= plugin.step_bound(snap)
                    checked += 1
    assert checked >= 500


def sparse_long_graphs(count=40):
    """Seeded sparse gen_random graphs, n 8-30 and lifetime 2n, each joined
    with a path through all vertices at increasing times: a yes-instance on
    even seeds; odd seeds swap two consecutive times of the path, which
    mostly gives a no. Without the path a graph this sparse has fewer than
    n - 1 time-edges, so VIM would answer without running."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(8, 30)
        g = gen_random(n, 2 * n, 0.3 / n, seed=seed)
        order = rng.sample(range(n), n)
        times = sorted(rng.sample(range(1, 2 * n + 1), n - 1))
        if seed % 2:
            i = rng.randrange(n - 2)
            times[i], times[i + 1] = times[i + 1], times[i]
        path = {(min(a, b), max(a, b), t) for a, b, t in zip(order, order[1:], times)}
        yield seed, TemporalGraph(n, set(g.time_edges) | path)


def test_vim_matches_tim_beyond_oracle_reach():
    for n in (20, 35, 50, 65, 80):
        g = gen_hard_ham_path(n)
        answers = [solve_hamiltonian(g, engine)[0] for engine in ("vim", "tim")]
        assert answers == [False, False], n  # a family of no-instances
    compared, yes, refused = 0, 0, []
    for seed, g in sparse_long_graphs():
        try:
            answers = {solve_hamiltonian(g, engine)[0] for engine in ("vim", "tim")}
        except ResourceLimitError as err:
            refused.append((seed, str(err)))
            continue
        assert len(answers) == 1, (seed, g)
        compared += 1
        yes += answers == {True}
    print(f"VIM and TIM agree on {compared} sparse long graphs ({yes} yes); refused: {refused}")
    assert len(refused) <= 4, refused
    assert yes >= 10 and compared - yes >= 10


def test_tim_vectors_are_never_negative():
    # what makes total_cap sound: subtree totals only grow towards the root,
    # so a total past v_upper stays past it
    rng = random.Random(240)
    seen = 0
    for _ in range(30):
        g = random_graph(rng, n_max=6, lam_max=4, p=0.5, n_min=2)
        if not g.time_edges:
            continue
        plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
        for comp in TwoStepStructure(g).comps.values():
            for role in ("start", "val", "fin"):
                vectors = [vec for _, vec in plugin.assignments(comp, role)]
                for labelling in product(plugin.labels, repeat=len(comp.vertices)):
                    vec = plugin.check(labelling, comp, role)
                    if vec is not None:
                        vectors.append(vec)
                assert all(x >= 0 for vec in vectors for x in vec), (comp, role)
                seen += len(vectors)
    assert seen > 1000


class UncappedHamiltonianTimPlugin(HamiltonianTimPlugin):
    def __init__(self, instance):
        super().__init__(instance)
        self.total_cap = None


def test_total_cap_keeps_answers_and_shrinks_tables():
    graphs = []
    rng = random.Random(2424)
    for _ in range(300):
        n = rng.randint(2, 9)
        graphs.append(gen_random(n, rng.randint(1, 6), rng.uniform(0.2, 0.7),
                                 max_times_per_edge=2, seed=rng.randrange(1 << 30)))
    for n in range(4, 29, 3):
        graphs.append(gen_ordered_tree(n, seed=n, max_times_per_edge=2, max_children=2))
    graphs += [gen_hard_ham_path(n) for n in range(8, 41, 8)]
    checked = smaller = yes = 0
    for g in graphs:
        if g.lifetime == 0:
            continue
        inst = HamiltonianInstance(g)
        structure = TwoStepStructure(g)
        capped = solve_component_exchangeable(HamiltonianTimPlugin(inst), g, structure=structure)
        full = solve_component_exchangeable(UncappedHamiltonianTimPlugin(inst), g, structure=structure)
        assert capped.answer == full.answer, g
        assert capped.profile_counts.keys() == full.profile_counts.keys()
        assert all(capped.profile_counts[x] <= c for x, c in full.profile_counts.items()), g
        smaller += capped.profile_counts != full.profile_counts
        yes += capped.answer
        if g.n <= 7:
            assert capped.answer == oracle_ham(g), g
            checked += 1
    assert checked >= 150 and smaller >= 100 and yes >= 30, (checked, smaller, yes)
