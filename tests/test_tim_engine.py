import random
from itertools import product

import pytest

from timwidth.core import TemporalGraph, _components
from timwidth.generators import gen_hard_ham_path, gen_random
from timwidth.oracles import oracle_firefighter_max, oracle_ham, oracle_matching, oracle_tred
from timwidth.problems import (
    FirefighterInstance,
    HamiltonianInstance,
    MatchingInstance,
    TredInstance,
    ff_tim_plugin,
    ham_tim_plugin,
    matching_tim_plugin,
    normalize_firefighter,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
    tred_tim_plugin,
)
from timwidth.tim_engine import (
    ComponentGraph,
    TwoStepStructure,
    fold_idle_run,
    realisable_profiles,
    solve_component_exchangeable,
)
from timwidth.vim_engine import ResourceLimitError

from .conftest import random_graph


def configuration_oracle(plugin, instance):
    """Monolithic reference: enumerate full configurations over every timed
    component of the graph and apply the realisability clauses globally."""
    g = instance.graph
    lam = g.lifetime
    comp_views = {}
    per_time_components = {}
    for t in range(0, lam + 1):
        st = 1 if t == 0 else t
        edges = g.edges_at(st)
        comps = _components(g.n, edges)
        per_time_components[t] = []
        for verts in comps:
            vset = set(verts)
            view = ComponentGraph(t, verts, tuple(e for e in edges if e[0] in vset))
            per_time_components[t].append(view)
            comp_views[(t, verts)] = view

    slots = []
    for t in range(0, lam + 1):
        role = "start" if t == 0 else ("fin" if t == lam else "val")
        for view in per_time_components[t]:
            options = plugin.assignments(view, t, role, instance)
            slots.append(((t, view), options))

    vu = plugin.v_upper(instance)
    k = plugin.arity(instance)
    keys = [key for key, _ in slots]
    for combo in product(*[opts for _, opts in slots]):
        chosen = dict(zip(keys, combo))
        label_at = {}
        for (t, view), (labelling, _vec) in chosen.items():
            for v, l in zip(view.vertices, labelling):
                label_at[(t, v)] = l
        ok = True
        for (t, view), (labelling, _vec) in chosen.items():
            if t == 0:
                continue
            prev = tuple(label_at[(t - 1, v)] for v in view.vertices)
            if not plugin.tr(prev, labelling, view, instance):
                ok = False
                break
        if not ok:
            continue
        total = [0] * k
        for (_t, _view), (_lab, vec) in chosen.items():
            for i, x in enumerate(vec):
                total[i] += x
        if all(a <= b for a, b in zip(total, vu)):
            return True
    return False


def small_graphs(rng, count, n_max=3, lam_max=2):
    out = []
    for _ in range(count):
        g = random_graph(rng, n_max=n_max, lam_max=lam_max, p=0.5)
        if g.lifetime >= 1:
            out.append(g)
    return out


def test_engine_matches_configuration_oracle_ham(rng):
    plugin = ham_tim_plugin()
    for g in small_graphs(rng, 40):
        inst = HamiltonianInstance(g)
        assert (
            solve_component_exchangeable(plugin, inst).answer
            == configuration_oracle(plugin, inst)
        ), g


def test_engine_matches_configuration_oracle_tred(rng):
    plugin = tred_tim_plugin()
    for g in small_graphs(rng, 25):
        inst = TredInstance(g, 0, rng.randint(1, g.n), rng.randint(0, 2))
        assert (
            solve_component_exchangeable(plugin, inst).answer
            == configuration_oracle(plugin, inst)
        ), (g, inst)


def test_realisable_profiles_at_time0_leaf():
    from timwidth.tim_engine import realisable_profiles

    g = TemporalGraph(2, [(0, 1, 1)])
    plugin = ham_tim_plugin()
    inst = HamiltonianInstance(g)
    structure = TwoStepStructure(g)
    leaf = next(
        s for s, t in enumerate(structure.rooted.times) if t == 0
    )
    profiles = realisable_profiles(structure, plugin, inst, leaf, {})
    # St-accepting labellings only, each with total equal to its own vector
    assert profiles
    for (rho, extra), totals in profiles.items():
        assert extra == ()
        ((labelling, vector),) = rho
        assert plugin.check(labelling, structure.comps[(0, 0)], 0, "start", inst) == vector
        assert totals == {vector}


def test_realisable_profiles_empty_when_children_incompatible():
    from timwidth.tim_engine import realisable_profiles

    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    plugin = ham_tim_plugin()
    inst = HamiltonianInstance(g)
    structure = TwoStepStructure(g)
    rd = structure.rooted
    node = next(s for s, t in enumerate(rd.times) if t == 2)
    # feed the internal node a child table with no usable profiles
    child_results = {c: {} for c in rd.children[node]}
    assert realisable_profiles(structure, plugin, inst, node, child_results) == {}


def reference_tr_site(structure, key):
    """The Tr site by a scan of the rooted bags at t-1 that hold the
    component's vertices: its home if all of them are children of the
    home, otherwise the home's parent."""
    rd = structure.rooted
    home = structure.home[key]
    verts = set(structure.comps[key].vertices)
    prev = {x for x, bag in enumerate(rd.bags) if rd.times[x] == key[0] - 1 and bag & verts}
    return home if prev <= set(rd.children[home]) else rd.parent[home]


def test_every_component_tr_checked_exactly_once(rng):
    graphs = [random_graph(rng, n_max=6, lam_max=4) for _ in range(25)]
    for g in graphs + [gen_hard_ham_path(20)]:
        base = TwoStepStructure(g)
        # a mid-tree root and a time-0 copy as root
        copies = sorted(base.rooted.copy_of)
        overrides = [len(base.decomposition.bags) // 2, copies[len(copies) // 2]] if copies else []
        for structure in [base] + [TwoStepStructure(g, ov) for ov in overrides]:
            check_tr_sites(g, structure)


def check_tr_sites(g, structure):
    rd = structure.rooted
    # comps holds each snapshot component once, with that snapshot's
    # edges inside it; time 0 mirrors time 1, and an edgeless graph has
    # no bags and so no components
    expected_comps = sorted(
        (t, verts, tuple(e for e in g.edges_at(t or 1) if e[0] in verts))
        for t in range(g.lifetime + 1 if g.lifetime else 0)
        for verts in _components(g.n, g.edges_at(t or 1))
    )
    got = sorted((c.t, c.vertices, c.edges) for c in structure.comps.values())
    assert got == expected_comps
    assert all(structure.comps[key].t == key[0] for key in structure.comps)
    expected = set()
    for node, keys in enumerate(structure.own_comps):
        for key in keys:
            assert structure.home[key] == node
            if key[0] >= 1:
                expected.add(key)
    assert set(structure.tr_site) == expected
    moved = {}
    for key, site in structure.tr_site.items():
        assert site == reference_tr_site(structure, key)
        home = structure.home[key]
        if site != home:
            moved.setdefault((site, home), []).append(key)
    assert structure.checks_from_child == moved
    for s, p in enumerate(rd.parent):
        verts = {v for key in moved.get((p, s), ()) for v in structure.comps[key].vertices}
        extra = tuple(sorted(verts - rd.bags[p])) if verts else ()
        assert structure.extra_vertices[s] == extra


def test_root_choice_invariance(rng):
    plugin = ham_tim_plugin()
    for _ in range(12):
        g = random_graph(rng, n_max=5, lam_max=4)
        if not g.time_edges:
            continue
        inst = HamiltonianInstance(g)
        base = solve_component_exchangeable(plugin, inst)
        n_nodes = base.bag_count - sum(
            1 for t in TwoStepStructure(g).rooted.times if t == 0
        )
        for alt in range(min(n_nodes, 4)):
            res = solve_component_exchangeable(plugin, inst, root_override=alt)
            assert res.answer == base.answer


def test_profile_counts_respect_bound(rng):
    plugin = ham_tim_plugin()
    for _ in range(10):
        g = random_graph(rng, n_max=5, lam_max=3)
        if not g.time_edges:
            continue
        inst = HamiltonianInstance(g)
        res = solve_component_exchangeable(plugin, inst)
        phi = res.phi
        b = plugin.counter_bound(inst)
        k = plugin.arity(inst)
        bound = (
            len(plugin.label_set(inst)) ** (3 * phi * phi)
            * (2 * b + 1) ** (3 * k * phi * phi)
            * (2 * g.lifetime * g.n * b + 1) ** k
        )
        assert all(c <= bound for c in res.profile_counts.values())


def test_profile_cap_names_bag():
    g = TemporalGraph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(ResourceLimitError) as err:
        solve_component_exchangeable(
            ham_tim_plugin(), HamiltonianInstance(g), cap=2
        )
    assert "bag" in str(err.value)


def test_engine_requires_lifetime():
    with pytest.raises(ValueError):
        solve_component_exchangeable(
            ham_tim_plugin(), HamiltonianInstance(TemporalGraph(2, []))
        )


def _sparse_long_graph(rng):
    """n 3-6, lifetime 8-14 and few edges: most (vertex, time) cells are
    idle, so the rooted decomposition has long runs of idle singleton bags."""
    while True:
        n = rng.randint(3, 6)
        g = gen_random(n, rng.randint(8, 14), 0.3, max_times_per_edge=2,
                       seed=rng.randrange(1 << 30))
        if g.lifetime >= 8:
            return g


def _run_directions(structure):
    """'up' for runs whose bags have later-time children, else 'down'."""
    rd = structure.rooted
    return {
        "up" if rd.times[rd.children[run[0]][0]] > rd.times[run[0]] else "down"
        for run in structure.runs.values()
    }


def test_long_idle_runs_match_oracles():
    rng = random.Random(8)
    directions = set()
    folded = 0
    for _ in range(20):
        g = _sparse_long_graph(rng)
        expected = oracle_ham(g)
        default = TwoStepStructure(g)
        mid = len(default.decomposition.bags) // 2
        for structure in (default, TwoStepStructure(g, 0), TwoStepStructure(g, mid)):
            directions |= _run_directions(structure)
            folded += sum(len(run) for run in structure.runs.values())
            assert solve_hamiltonian(g, "tim", structure=structure)[0] == expected, g

        root = rng.randrange(g.n)
        inst = FirefighterInstance(g, root, rng.randint(g.n // 2, g.n))
        expected = oracle_firefighter_max(g, root) >= inst.saves_target
        assert solve_firefighter(inst, "tim")[0] == expected, inst

        inst = MatchingInstance(g, rng.randint(1, 3), rng.randint(1, len(g.time_edges)))
        assert solve_matching(inst)[0] == oracle_matching(g, inst.delta, inst.size_target), inst

        inst = TredInstance(g, rng.randrange(g.n), rng.randint(1, g.n), rng.randint(0, 1))
        expected = oracle_tred(g, inst.source, inst.max_reached, inst.max_deletions)
        assert solve_tred(inst)[0] == expected, inst
    assert directions == {"up", "down"}
    assert folded > 500


def test_folded_runs_match_bag_by_bag_tables():
    # the reference is the general step applied to every bag of the run
    rng = random.Random(9)
    for _ in range(8):
        g = _sparse_long_graph(rng)
        root = rng.choice([v for e in g.time_edges for v in e[:2]])
        cases = (
            (ham_tim_plugin(), HamiltonianInstance(g)),
            (ff_tim_plugin(), normalize_firefighter(FirefighterInstance(g, root, 1))),
            (matching_tim_plugin(), MatchingInstance(g, rng.randint(1, 3), 1)),
            (tred_tim_plugin(), TredInstance(g, root, g.n, 1)),
        )
        for plugin, inst in cases:
            structure = TwoStepStructure(inst.graph)
            rd = structure.rooted
            tables = {}
            for node in structure.postorder():
                children = {c: tables[c] for c in rd.children[node]}
                tables[node] = realisable_profiles(structure, plugin, inst, node, children)
            for top, run in structure.runs.items():
                below = rd.children[run[0]][0]
                folded = fold_idle_run(structure, plugin, inst, run, tables[below], {})
                assert folded.keys() == tables[top].keys()
                for key, totals in folded.items():
                    # a subset that keeps a total at or below every dropped one
                    assert totals <= tables[top][key]
                    assert all(
                        any(all(a <= b for a, b in zip(low, total)) for low in totals)
                        for total in tables[top][key]
                    )


def test_one_vertex_answers_do_not_depend_on_the_vertex():
    # fold_idle_run asks check and tr once per timestep for all one-vertex
    # edgeless components, so their answers there must not name the vertex
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 2), (0, 3, 2), (2, 3, 3)])
    cases = (
        (ham_tim_plugin(), HamiltonianInstance(g)),
        (ff_tim_plugin(), FirefighterInstance(g, 0, 1)),
        (matching_tim_plugin(), MatchingInstance(g, 2, 1)),
        (tred_tim_plugin(), TredInstance(g, 0, g.n, 1)),
    )
    for plugin, inst in cases:
        labels = plugin.label_set(inst)
        for t in range(1, g.lifetime + 1):
            answers = set()
            for v in range(g.n):
                comp = ComponentGraph(t, (v,), ())
                checks = tuple(
                    plugin.check((l,), comp, t, role, inst) for role in ("val", "fin") for l in labels
                )
                trs = tuple(plugin.tr((a,), (b,), comp, inst) for a in labels for b in labels)
                answers.add((checks, trs))
            assert len(answers) == 1, (type(plugin).__name__, t)


def test_hard_family_materialises_few_profiles():
    # run folding keeps one table per run, not one per idle bag; without it
    # this solve materialised 83,446 profile entries
    answer, (res,) = solve_hamiltonian(gen_hard_ham_path(80), "tim")
    assert not answer
    assert sum(res.profile_counts.values()) < 83_446 // 2
