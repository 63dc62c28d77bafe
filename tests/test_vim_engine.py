import random

import pytest

from timwidth import generators
from timwidth.core import TemporalGraph, snapshot
from timwidth.oracles import oracle_ham
from timwidth.problems import FirefighterInstance, HamiltonianInstance, normalize_firefighter
from timwidth.problems.firefighter import FirefighterVimPlugin
from timwidth.problems.hamiltonian import HamiltonianVimPlugin
from timwidth.vim_engine import (
    KXState,
    ResourceLimitError,
    VimProblemPlugin,
    enumerate_bag_states,
    solve_locally_uniform,
)
from timwidth.widths import vim_sequence

from .conftest import random_graph


def reference_algorithm2(plugin, instance):
    """Direct transcription of the chronological meta-algorithm: enumerate
    every bag state per timestep (all labellings times the whole counter
    range) and keep it iff Tr takes some kept predecessor to exactly it.
    Returns the per-timestep tables, stopping at the first empty one."""
    g = instance.graph
    vs = vim_sequence(g)
    states = {s.restrict(vs.bags[0]) for s in plugin.initial_states}
    tables = [frozenset(states)]
    for t in range(1, g.lifetime + 1):
        if not states:
            break
        snap = snapshot(g, t)
        ft = vs.bags[t]
        kept = set()
        for cand in enumerate_bag_states(ft, plugin):
            labels = cand.label_dict()
            for prev in states:
                if plugin.transition(prev.restrict(ft), labels, snap) == cand.counters:
                    kept.add(cand)
                    break
        states = kept
        tables.append(frozenset(states))
    return tables


def test_enumerate_counts():
    inst = HamiltonianInstance(TemporalGraph(3, [(0, 1, 1)]))
    no_counter = HamiltonianVimPlugin(inst)
    no_counter.counter_ranges = ()
    assert len(enumerate_bag_states(frozenset(), no_counter)) == 1
    assert len(enumerate_bag_states(frozenset({4}), no_counter)) == 3

    one_counter = HamiltonianVimPlugin(inst)
    one_counter.counter_ranges = ((0, 3),)
    states = enumerate_bag_states(frozenset({1, 2}), one_counter)
    assert len(states) == 9 * 4
    assert len(set(states)) == len(states)


def test_counterless_plugin_keeps_its_steps():
    # no counters: every kept state carries the empty counter vector,
    # which is a step Tr admits, not a rejection
    class Counterless(VimProblemPlugin):
        labels = ("U", "X")
        counter_ranges = ()
        initial_states = (KXState.make({}, (), "U"),)

        def transition(self, prev, labels, snap):
            return () if not labels else None

        def accept(self, state):
            return True

    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    res = solve_locally_uniform(Counterless(), g)
    assert res.answer
    assert res.table_sizes == [1, 1, 1]


def test_trivial_ham_solves():
    g = TemporalGraph(2, [(0, 1, 1)])
    res = solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g)), g)
    assert res.answer
    g2 = TemporalGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert not solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g2)), g2).answer


def test_engine_matches_reference_algorithm(rng):
    for _ in range(25):
        g = random_graph(rng, n_max=4, lam_max=3)
        inst = HamiltonianInstance(g)
        ham = HamiltonianVimPlugin(inst)
        assert solve_locally_uniform(ham, g, record=True).tables == reference_algorithm2(ham, inst)
    checked = 0
    while checked < 25:
        g = random_graph(rng, n_max=4, lam_max=3)
        roots = sorted({v for u, w, _ in g.time_edges for v in (u, w)})
        if not roots:
            continue
        inst = normalize_firefighter(
            FirefighterInstance(g, rng.choice(roots), rng.randint(0, g.n))
        )
        ff = FirefighterVimPlugin(inst)
        assert solve_locally_uniform(ff, inst.graph, record=True).tables == reference_algorithm2(ff, inst)
        checked += 1


def test_table_sizes_respect_bound(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=6, lam_max=4)
        plugin = HamiltonianVimPlugin(HamiltonianInstance(g))
        res = solve_locally_uniform(plugin, g)
        b = plugin.counter_bound
        bound = (2 * b + 1) ** len(plugin.counter_ranges) * len(plugin.labels) ** res.omega
        assert all(size <= bound for size in res.table_sizes)


def test_kept_states_live_on_ft(rng):
    for _ in range(10):
        g = random_graph(rng, n_max=5, lam_max=4)
        res = solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g)), g, record=True)
        vs = vim_sequence(g)
        for t, table in enumerate(res.tables):
            for state in table:
                assert {v for v, _ in state.labels} <= vs.bags[t]


def test_relabelling_invariance(rng):
    for _ in range(10):
        g = random_graph(rng, n_max=5, lam_max=3)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g2 = TemporalGraph(g.n, [(perm[u], perm[v], t) for u, v, t in g.time_edges])
        a = solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g)), g).answer
        b = solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g2)), g2).answer
        assert a == b


def test_resource_guard_names_timestep():
    g = TemporalGraph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(ResourceLimitError) as err:
        solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g)), g, state_cap=10)
    assert "timestep 1" in str(err.value)


def test_guard_counts_candidates_not_bag_labellings():
    # omega 14 but at most 3 active vertices per timestep: 3**|F_t| times the
    # counter range exceeds the default cap, the candidates tried stay far below it
    edges = [(2 * i, 2 * i + 1, i + 1) for i in range(7)]
    edges += [(2 * i, 2 * i + 1, i + 8) for i in range(7)]
    edges += [(2 * i + 1, 2 * i + 2, i + 8) for i in range(6)]
    g = TemporalGraph(14, edges)
    vs = vim_sequence(g)
    assert vs.width == 14
    assert max(len(snapshot(g, t).vertices) for t in range(1, g.lifetime + 1)) <= 3
    res = solve_locally_uniform(HamiltonianVimPlugin(HamiltonianInstance(g)), g)
    assert res.answer == oracle_ham(g)


def test_kxstate_accessors():
    s = KXState.make({0: "C", 1: "U"}, (1,), "U")
    assert s.label(0) == "C"
    assert s.label(1) == "U"
    assert s.label(9) == "U"
    assert s.labelled("C") == {0}
    assert s.restrict({1}).labels == ()


def test_kxstate_views_match_stored_pairs():
    rng = random.Random(34)
    for plugin_cls in (HamiltonianVimPlugin, FirefighterVimPlugin):
        alphabet, default = plugin_cls.labels, plugin_cls.default_label
        for _ in range(50):
            label_map = {v: rng.choice(alphabet) for v in range(8) if rng.random() < 0.7}
            counters = (rng.randint(0, 5),)
            s = KXState.make(label_map, counters, default)
            for v in range(9):
                assert s.label(v) == next((l for x, l in s.labels if x == v), default)
            for l in alphabet:
                assert s.labelled(l) == frozenset(x for x, y in s.labels if y == l)
            assert s.label_dict() == dict(s.labels)
            fresh = KXState.make(label_map, counters, default)
            assert s == fresh
            assert hash(s) == hash(fresh)
            assert repr(s) == repr(fresh)
            d = s.label_dict()
            d[0] = "X"
            d.clear()
            assert s == fresh
            assert s.label_dict() == dict(fresh.labels)
            assert all(s.label(v) == fresh.label(v) for v in range(9))


def scanning_label(self, v):
    """KXState.label as it was before the views: a scan of the pairs."""
    for x, l in self.labels:
        if x == v:
            return l
    return self.default


def scanning_labelled(self, label):
    """KXState.labelled as it was before the views: a new frozenset per call."""
    return frozenset(v for v, l in self.labels if l == label)


def test_label_views_match_scanning_accessors(monkeypatch):
    # n 3-6 with the perfbench pools' shapes, ff n=6 included, which the pools leave out
    rng = random.Random(3406)

    def draw(n):
        lam = rng.randint(1, 4)
        return generators.gen_random(n, lam, 0.35, max_times_per_edge=2, seed=rng.randrange(1 << 30))

    cases = []
    for n in range(3, 7):
        for _ in range(3):
            g = draw(n)
            cases.append((HamiltonianVimPlugin, HamiltonianInstance(g)))
        drawn = 0
        while drawn < 4:
            g = draw(n)
            root = rng.randrange(n)
            if not any(root in (u, v) for u, v, _ in g.time_edges):
                continue
            inst = normalize_firefighter(FirefighterInstance(g, root, rng.randint(0, n)))
            cases.append((FirefighterVimPlugin, inst))
            drawn += 1
    assert any(cls is FirefighterVimPlugin and inst.graph.n == 6 for cls, inst in cases)

    def run_all():
        return [
            solve_locally_uniform(cls(inst), inst.graph, record=True) for cls, inst in cases
        ]

    with_views = run_all()
    monkeypatch.setattr(KXState, "label", scanning_label)
    monkeypatch.setattr(KXState, "labelled", scanning_labelled)
    scanning = run_all()
    for a, b in zip(with_views, scanning):
        assert (a.answer, a.table_sizes, a.tables) == (b.answer, b.table_sizes, b.tables)
