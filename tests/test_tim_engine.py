import random
from collections import Counter
from itertools import product
from operator import le

import pytest

from timwidth import tim_engine
from timwidth.core import TemporalGraph, _components
from timwidth.decomposition import (
    TimDecomposition,
    compute_tim_decomposition,
    decomposition_from_vim,
    interval_decomposition,
    root_and_augment,
    tim_width,
    validate_decomposition,
)
from timwidth.generators import gen_hard_ham_path, gen_random
from timwidth.oracles import oracle_firefighter_max, oracle_ham, oracle_matching, oracle_tred
from timwidth.problems import (
    FirefighterInstance,
    HamiltonianInstance,
    MatchingInstance,
    TredInstance,
    normalize_firefighter,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from timwidth.problems.firefighter import FirefighterTimPlugin
from timwidth.problems.hamiltonian import HamiltonianTimPlugin
from timwidth.problems.matching import MatchingTimPlugin
from timwidth.problems.reachability import TredTimPlugin
from timwidth.tim_engine import (
    ComponentGraph,
    TimSolveResult,
    TwoStepStructure,
    _minimal,
    fold_idle_run,
    realisable_profiles,
    solve_component_exchangeable,
)
from timwidth.vim_engine import ResourceLimitError
from timwidth.widths import vim_sequence

from .conftest import random_graph
from .test_decomposition import SEARCH_GRAPH, WIDTHS_POOL_GRAPH


# Tr of each TIM plugin as a predicate on one (earlier, later) labelling pair:
# the specification that successors must generate exactly, and the Tr of the
# configuration oracle, which therefore does not lean on successors.


def ham_tr(prev_labelling, labelling, comp, instance):
    if prev_labelling == labelling:
        return True
    verts = comp.vertices
    c1 = {v for v, l in zip(verts, prev_labelling) if l == "C"}
    c2 = {v for v, l in zip(verts, labelling) if l == "C"}
    gone, arrived = c1 - c2, c2 - c1
    if len(gone) != 1 or len(arrived) != 1:
        return False
    a, b = next(iter(gone)), next(iter(arrived))
    e = (a, b) if a < b else (b, a)
    if e not in comp.edges:
        return False
    if prev_labelling[comp.index[b]] != "U":
        return False
    v1 = {v for v, l in zip(verts, prev_labelling) if l == "V"}
    v2 = {v for v, l in zip(verts, labelling) if l == "V"}
    return v1 | {a} == v2


def matching_tr(prev_labelling, labelling, comp, instance):
    d = instance.delta
    matched = (1, d, d)

    def options(label):
        if label == matched:
            return [(0, 1, max(1, d - 1))] + ([matched] if d == 1 else [])
        _, a, b = label
        return [(0, min(d, a + 1), max(1, b - 1))] + ([matched] if b == 1 and a >= d - 1 else [])

    return all(after in options(before) for before, after in zip(prev_labelling, labelling))


def tred_tr(prev_labelling, labelling, comp, instance):
    verts = comp.vertices
    r1 = {v for v, l in zip(verts, prev_labelling) if l == "R"}
    n1 = {v for v, l in zip(verts, prev_labelling) if l == "N"}
    u1 = {v for v, l in zip(verts, prev_labelling) if l == "U"}
    r2 = {v for v, l in zip(verts, labelling) if l == "R"}
    n2 = {v for v, l in zip(verts, labelling) if l == "N"}
    if r2 != r1 | n1:
        return False
    frontier = set()
    for v in r2:
        frontier |= comp.adjacency[v]
    # keeping any connecting edge makes a vertex newly reached; deleting
    # all of them leaves it unreached, so only containment is forced
    return n2 <= (u1 & frontier)


def ff_tr(prev_labelling, labelling, comp, instance):
    def sets(lab):
        out = {"B": set(), "U": set(), "N": set(), "D": set()}
        for v, l in zip(comp.vertices, lab):
            out[l].add(v)
        return out

    s1, s2 = sets(prev_labelling), sets(labelling)
    if s2["D"] != s1["D"] | s1["N"]:
        return False
    spread = set()
    for v in s1["B"]:
        spread |= comp.adjacency[v]
    blocked = s2["D"] | s2["N"]
    if s2["B"] != s1["B"] | (spread - blocked):
        return False
    return (s2["U"] | s2["N"]) <= s1["U"]


REFERENCE_TR = {
    HamiltonianTimPlugin: ham_tr,
    MatchingTimPlugin: matching_tr,
    TredTimPlugin: tred_tr,
    FirefighterTimPlugin: ff_tr,
}


def components_up_to(k_max):
    """Every component on vertices 0..k-1, k <= k_max: each edge subset that
    leaves the vertices connected, as every snapshot component is."""
    for k in range(1, k_max + 1):
        pool = [(u, v) for u in range(k) for v in range(u + 1, k)]
        for mask in range(1 << len(pool)):
            edges = tuple(e for i, e in enumerate(pool) if mask >> i & 1)
            if len(_components(k, edges)) == 1:
                yield ComponentGraph(1, tuple(range(k)), edges)


def test_successors_are_exactly_tr():
    g = TemporalGraph(4, [(0, 1, 1)])
    cases = [
        (HamiltonianTimPlugin, HamiltonianInstance(g), 4),
        (TredTimPlugin, TredInstance(g, 0, 1, 1), 4),
        (FirefighterTimPlugin, FirefighterInstance(g, 0, 1), 3),
    ]
    cases += [(MatchingTimPlugin, MatchingInstance(g, d, 1), 3) for d in (1, 2, 3)]
    for cls, inst, k_max in cases:
        plugin = cls(inst)
        ref_tr = REFERENCE_TR[cls]
        labels = plugin.labels
        for comp in components_up_to(k_max):
            everything = list(product(labels, repeat=len(comp.vertices)))
            for prev in everything:
                out = plugin.successors(prev, comp)
                assert len(out) == len(set(out)), (type(plugin).__name__, prev, comp)
                expected = {nxt for nxt in everything if ref_tr(prev, nxt, comp, inst)}
                assert set(out) == expected, (type(plugin).__name__, prev, comp)


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
            options = plugin.assignments(view, role)
            slots.append(((t, view), options))

    ref_tr = REFERENCE_TR[type(plugin)]
    vu = plugin.v_upper
    k = len(vu)
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
            if not ref_tr(prev, labelling, view, instance):
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
    for g in small_graphs(rng, 40):
        inst = HamiltonianInstance(g)
        plugin = HamiltonianTimPlugin(inst)
        assert (
            solve_component_exchangeable(plugin, g).answer
            == configuration_oracle(plugin, inst)
        ), g


def test_engine_matches_configuration_oracle_tred(rng):
    for g in small_graphs(rng, 25):
        inst = TredInstance(g, 0, rng.randint(1, g.n), rng.randint(0, 2))
        plugin = TredTimPlugin(inst)
        assert (
            solve_component_exchangeable(plugin, g).answer
            == configuration_oracle(plugin, inst)
        ), (g, inst)


def test_realisable_profiles_at_time0_leaf():
    from timwidth.tim_engine import realisable_profiles

    g = TemporalGraph(2, [(0, 1, 1)])
    plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
    structure = TwoStepStructure(g)
    leaf = next(
        s for s, t in enumerate(structure.rooted.times) if t == 0
    )
    profiles = realisable_profiles(structure, plugin, leaf, {})
    # St-accepting labellings only, each with total equal to its own vector
    assert profiles
    for (rho, extra), totals in profiles.items():
        assert extra == ()
        ((labelling, vector),) = rho
        assert plugin.check(labelling, structure.own_comps[leaf][0], "start") == vector
        assert totals == {vector}

    # a leaf at t >= 1 makes no join either. {0, 1, 2}@1 and {3}@1 below
    # {0, 2}@2 and {1, 3}@2, rooted at {1, 3}@2: {0, 2}@2 is a leaf of two
    # idle components whose parent, one time earlier, holds both vertices,
    # so the parent checks both Tr
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 1), (1, 3, 2)])
    bags = tuple(frozenset(b) for b in ({0, 1, 2}, {0, 2}, {1, 3}, {3}))
    d = TimDecomposition(4, 2, bags, (1, 2, 2, 1), ((0, 1), (0, 2), (3, 2)))
    structure = TwoStepStructure(g, d, root=2)
    rd = structure.rooted
    leaf = 1
    assert rd.children[leaf] == () and rd.times[rd.parent[leaf]] == rd.times[leaf] - 1
    assert structure.parent_checks[leaf] == (0, 1) and structure.extra_vertices[leaf] == ()

    plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
    asked = []

    def counting(prev_labelling, comp):
        asked.append((comp.t, comp.vertices, prev_labelling))
        return HamiltonianTimPlugin.successors(plugin, prev_labelling, comp)

    plugin.successors = counting
    profiles = realisable_profiles(structure, plugin, leaf, {})
    assert asked == []
    # the product of the components' assignments, one total per key: the
    # sum of the rho's vectors
    options = [plugin.assignments(comp, "fin") for comp in structure.own_comps[leaf]]
    assert profiles == {
        (rho, ()): {tuple(map(sum, zip(*(vec for _, vec in rho))))} for rho in product(*options)
    }
    assert len(profiles) == len(options[0]) * len(options[1]) > 1


def test_realisable_profiles_empty_when_children_incompatible():
    from timwidth.tim_engine import realisable_profiles

    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
    structure = TwoStepStructure(g)
    rd = structure.rooted
    node = next(s for s, t in enumerate(rd.times) if t == 2)
    # feed the internal node a child table with no usable profiles
    child_results = {c: {} for c in rd.children[node]}
    assert realisable_profiles(structure, plugin, node, child_results) == {}


def _is_interval(rd, s):
    """Whether node s is an interval node: a singleton bag whose only child
    is a singleton bag."""
    ch = rd.children[s]
    return len(rd.bags[s]) == len(ch) == 1 and len(rd.bags[ch[0]]) == 1


def _interval_nodes(structure):
    """(node, child) for each interval node."""
    rd = structure.rooted
    return [(s, rd.children[s][0]) for s in range(len(rd.bags)) if _is_interval(rd, s)]


def node_times(rd, x):
    """The timesteps node x holds its bag at: an interval node's run from the
    one next to its child to rd.times[x]."""
    if not _is_interval(rd, x):
        return {rd.times[x]}
    below, top = rd.times[rd.children[x][0]], rd.times[x]
    return set(range(below + 1, top + 1)) if below < top else set(range(top, below))


def tr_site(structure, home, i):
    """The bag that checks the Tr of own component i of home, at t >= 1, as
    parent_checks says."""
    return structure.rooted.parent[home] if i in structure.parent_checks[home] else home


def reference_tr_site(structure, home, i):
    """The Tr site by a scan of the rooted nodes other than its home that
    hold a bag at t-1 meeting the component's vertices: its home if all of
    them are children of the home, otherwise the home's parent."""
    rd = structure.rooted
    comp = structure.own_comps[home][i]
    verts = set(comp.vertices)
    prev = {x for x, bag in enumerate(rd.bags) if comp.t - 1 in node_times(rd, x) and bag & verts}
    return home if prev - {home} <= set(rd.children[home]) else rd.parent[home]


def one_bag_nodes(d):
    """The nodes of d that hold their bag at one timestep: root_and_augment
    roots an interval node only at its time-Lambda end."""
    return [i for i, (t, end) in enumerate(zip(d.times, d.ends or d.times)) if t == end]


def test_every_component_tr_checked_exactly_once(rng):
    graphs = [random_graph(rng, n_max=6, lam_max=4) for _ in range(25)]
    for g in graphs + [gen_hard_ham_path(20)]:
        base = TwoStepStructure(g)
        # a mid-tree root and a time-0 copy as root, named by their index
        # among the interval tree's nodes, then the copies
        d = interval_decomposition(g)
        nodes, copies = one_bag_nodes(d), len(base.rooted.copy_of)
        roots = [nodes[len(nodes) // 2], len(d.bags) + copies // 2] if copies else []
        for structure in [base] + [TwoStepStructure(g, d, r) for r in roots]:
            check_tr_sites(g, structure)


def check_tr_sites(g, structure):
    rd, own_comps = structure.rooted, structure.own_comps
    # own_comps holds snapshot components with that snapshot's edges
    # inside them; time 0 mirrors time 1, and an edgeless graph has no
    # bags and so no components. Every component with an edge is there;
    # an interval node adds only the one of its bag at rd.times
    snapshot_comps = {
        (t, verts): tuple(e for e in g.edges_at(t or 1) if e[0] in verts)
        for t in range(g.lifetime + 1 if g.lifetime else 0)
        for verts in _components(g.n, g.edges_at(t or 1))
    }
    owned = [(c.t, c.vertices) for own in own_comps for c in own]
    got = {(c.t, c.vertices): c.edges for own in own_comps for c in own}
    # each component is own to exactly one bag, its home
    assert len(got) == len(owned)
    assert all(snapshot_comps[comp] == edges for comp, edges in got.items())
    assert {comp for comp in snapshot_comps if len(comp[1]) > 1} <= got.keys()
    # a bag's components sit at its time, sorted by smallest vertex
    for s, own in enumerate(own_comps):
        assert all(c.t == rd.times[s] for c in own)
        firsts = [c.vertices[0] for c in own]
        assert firsts == sorted(set(firsts))
    # each component at t >= 1 is checked at its home unless parent_checks
    # moves it to the home's parent
    for s, checks in enumerate(structure.parent_checks):
        assert list(checks) == sorted(set(checks))
        assert all(0 <= i < len(own_comps[s]) and own_comps[s][i].t >= 1 for i in checks)
    for s, own in enumerate(own_comps):
        for i, c in enumerate(own):
            if c.t >= 1:
                assert tr_site(structure, s, i) == reference_tr_site(structure, s, i)
    for s, p in enumerate(rd.parent):
        verts = {v for i in structure.parent_checks[s] for v in own_comps[s][i].vertices}
        extra = tuple(sorted(verts - rd.bags[p])) if verts else ()
        assert structure.extra_vertices[s] == extra


def test_root_choice_invariance(rng):
    for _ in range(12):
        g = random_graph(rng, n_max=5, lam_max=4)
        if not g.time_edges:
            continue
        plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
        base = solve_component_exchangeable(plugin, g)
        expanded = compute_tim_decomposition(g)
        for alt in range(min(len(expanded.bags), 4)):
            structure = TwoStepStructure(g, expanded, alt)
            res = solve_component_exchangeable(plugin, g, structure=structure)
            assert res.answer == base.answer


def test_profile_counts_respect_bound(rng):
    for _ in range(10):
        g = random_graph(rng, n_max=5, lam_max=3)
        if not g.time_edges:
            continue
        plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
        res = solve_component_exchangeable(plugin, g)
        phi = res.phi
        b = plugin.counter_bound
        k = len(plugin.v_upper)
        bound = (
            len(plugin.labels) ** (3 * phi * phi)
            * (2 * b + 1) ** (3 * k * phi * phi)
            * (2 * g.lifetime * g.n * b + 1) ** k
        )
        assert all(c <= bound for c in res.profile_counts.values())


def test_profile_cap_names_bag():
    g = TemporalGraph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(ResourceLimitError) as err:
        solve_component_exchangeable(
            HamiltonianTimPlugin(HamiltonianInstance(g)), g, cap=2
        )
    # bag 1 is the time-0 leaf: 3 labels on each of 6 vertices
    assert str(err.value) == "state space at bag 1 would reach 729 entries (cap 2)"


def test_engine_requires_lifetime():
    g = TemporalGraph(2, [])
    with pytest.raises(ValueError):
        solve_component_exchangeable(
            HamiltonianTimPlugin(HamiltonianInstance(g)), g
        )


def test_structure_must_be_built_for_the_instance_graph():
    # a structure of another graph used to decide that graph instead: here
    # a Hamiltonian path the instance's graph does not have
    built_for = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    g = TemporalGraph(3, [(0, 1, 2), (0, 2, 2)])
    assert not oracle_ham(g)
    plugin = HamiltonianTimPlugin(HamiltonianInstance(g))
    assert not solve_component_exchangeable(plugin, g).answer
    with pytest.raises(ValueError, match="another graph"):
        solve_component_exchangeable(
            plugin, g, structure=TwoStepStructure(built_for)
        )
    # an equal graph built apart is the same graph
    twin = TemporalGraph(3, [(1, 2, 2), (0, 1, 1)])
    res = solve_component_exchangeable(
        HamiltonianTimPlugin(HamiltonianInstance(twin)), twin, structure=TwoStepStructure(built_for)
    )
    assert res.answer == oracle_ham(twin)


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
    return {"up" if rd.times[c] > rd.times[s] else "down" for s, c in _interval_nodes(structure)}


def test_long_idle_runs_match_oracles():
    rng = random.Random(8)
    directions = set()
    folded = 0
    for _ in range(20):
        g = _sparse_long_graph(rng)
        expected = oracle_ham(g)
        d = interval_decomposition(g)
        nodes = one_bag_nodes(d)
        for r in (None, nodes[0], nodes[len(nodes) // 2]):
            structure = TwoStepStructure(g, d, r)
            directions |= _run_directions(structure)
            rd = structure.rooted
            folded += sum(abs(rd.times[s] - rd.times[c]) for s, c in _interval_nodes(structure))
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


def expanded_structure(g):
    """TwoStepStructure over compute_tim_decomposition: one node per bag."""
    return TwoStepStructure(g, compute_tim_decomposition(g))


def bag_by_bag_tables(structure, plugin):
    """realisable_profiles applied to every node, children first."""
    rd = structure.rooted
    tables = {}
    for node in structure.postorder():
        children = {c: tables[c] for c in rd.children[node]}
        tables[node] = realisable_profiles(structure, plugin, node, children)
    return tables


def four_plugin_cases(g, rng):
    root = rng.choice([v for e in g.time_edges for v in e[:2]])
    return tuple((cls(inst), inst) for cls, inst in (
        (HamiltonianTimPlugin, HamiltonianInstance(g)),
        (FirefighterTimPlugin, normalize_firefighter(FirefighterInstance(g, root, 1))),
        (MatchingTimPlugin, MatchingInstance(g, rng.randint(1, 3), 1)),
        (TredTimPlugin, TredInstance(g, root, g.n, 1)),
    ))


def test_folded_runs_match_bag_by_bag_tables():
    # the reference is the general step applied to every bag of the run, on
    # the tree with one node per bag
    rng = random.Random(9)
    for _ in range(8):
        g = _sparse_long_graph(rng)
        for plugin, inst in four_plugin_cases(g, rng):
            structure = TwoStepStructure(inst.graph)
            expanded = expanded_structure(inst.graph)
            ed = expanded.rooted
            node_of = {(t, min(bag)): x for x, (bag, t) in enumerate(zip(ed.bags, ed.times))}
            tables = bag_by_bag_tables(expanded, plugin)
            rd = structure.rooted
            for top, below in _interval_nodes(structure):
                base = tables[node_of[rd.times[below], min(rd.bags[below])]]
                reference = tables[node_of[rd.times[top], min(rd.bags[top])]]
                folded = fold_idle_run(structure, plugin, top, base, {})
                assert folded.keys() == reference.keys()
                for key, totals in folded.items():
                    # a subset that keeps a total at or below every dropped one
                    assert totals <= reference[key]
                    assert all(
                        any(all(a <= b for a, b in zip(low, total)) for low in totals)
                        for total in reference[key]
                    )


def reference_bag_step(structure, plugin, inst, node, child_results):
    """The bag step as a nested-loop join: for every combination of
    down-children's entries and every choice of own labellings, each
    up-child's whole table is scanned and Tr re-asked per entry, and every
    achievable total is kept."""
    rd, own_comps = structure.rooted, structure.own_comps
    t = rd.times[node]
    role = "start" if t == 0 else ("fin" if t == inst.graph.lifetime else "val")
    down = [c for c in rd.children[node] if rd.times[c] == t - 1]
    up = [c for c in rd.children[node] if rd.times[c] == t + 1]
    own = own_comps[node]

    def labels_of(comps, rho):
        return {
            v: label
            for comp, (labelling, _vec) in zip(comps, rho)
            for v, label in zip(comp.vertices, labelling)
        }

    def tr_holds(comp, label_at, nxt):
        prev = tuple(label_at[v] for v in comp.vertices)
        return nxt in plugin.successors(prev, comp)

    results = {}
    for down_combo in product(*(child_results[c].items() for c in down)):
        prev_at = {}
        for c, ((rho_c, _extra), _totals) in zip(down, down_combo):
            prev_at.update(labels_of(own_comps[c], rho_c))
        options = []
        for i, comp in enumerate(own):
            opts = plugin.assignments(comp, role)
            if t >= 1 and tr_site(structure, node, i) == node:
                opts = [(lab, vec) for lab, vec in opts if tr_holds(comp, prev_at, lab)]
            options.append(opts)
        for rho in product(*options):
            own_at = labels_of(own, rho)
            sets = [totals for _key, totals in down_combo]
            for c in up:
                checked = structure.parent_checks[c]
                joined = set()
                for (rho_c, extra_c), totals_c in child_results[c].items():
                    label_at = {**own_at, **dict(extra_c)}
                    if all(tr_holds(own_comps[c][i], label_at, rho_c[i][0]) for i in checked):
                        joined |= totals_c
                sets.append(joined)
            own_sum = tuple(sum(vals) for vals in zip(*(vec for _, vec in rho)))
            totals = {tuple(map(sum, zip(own_sum, *choice))) for choice in product(*sets)}
            if totals:
                extra = tuple((v, prev_at[v]) for v in structure.extra_vertices[node])
                results.setdefault((rho, extra), set()).update(totals)
    return results


def test_join_matches_nested_loop_reference():
    # the same child tables through the grouped join and the nested loop, on
    # the tree with one node per bag: the join keeps every key and exactly
    # the minimal totals
    rng = random.Random(17)
    cases = [case for _ in range(6) for case in four_plugin_cases(_sparse_long_graph(rng), rng)]
    # SEARCH_GRAPH has bags that check Tr of several components of one up-child
    cases += four_plugin_cases(SEARCH_GRAPH, rng)
    up_children = set()
    for plugin, inst in cases:
        expanded = expanded_structure(inst.graph)
        rd = expanded.rooted
        tables = bag_by_bag_tables(expanded, plugin)
        for node in expanded.postorder():
            children = {c: tables[c] for c in rd.children[node]}
            reference = reference_bag_step(expanded, plugin, inst, node, children)
            assert tables[node].keys() == reference.keys()
            for key, totals in tables[node].items():
                assert totals == _minimal(reference[key])
            up_children.add(sum(rd.times[c] > rd.times[node] for c in children))
    assert up_children >= {0, 1, 2}


def test_interval_solve_matches_bag_by_bag_solve():
    # sparse long graphs, and two whose idle runs lie on cycles of the
    # initial bag forest, so the search expands them and the structure
    # keeps the bags no merge touched one node per timestep, each folded in
    # one step; the 9-vertex one takes seconds per plugin bag by bag, so
    # only Hamiltonian path runs on it
    rng = random.Random(14)
    cases = [case for _ in range(6) for case in four_plugin_cases(_sparse_long_graph(rng), rng)]
    cases += four_plugin_cases(SEARCH_GRAPH, rng)
    inst = HamiltonianInstance(WIDTHS_POOL_GRAPH)
    cases.append((HamiltonianTimPlugin(inst), inst))
    nodes = bags = 0
    for plugin, inst in cases:
        structure = TwoStepStructure(inst.graph)
        expanded = expanded_structure(inst.graph)
        nodes += len(structure.rooted.bags)
        bags += len(expanded.rooted.bags)
        tables = bag_by_bag_tables(expanded, plugin)
        per_tree = [set().union(*tables[root].values()) for root in expanded.rooted.roots]
        bound = plugin.v_upper
        expected = any(
            all(sum(column) <= b for column, b in zip(zip(*totals), bound))
            for totals in product(*per_tree)
        )
        res = solve_component_exchangeable(plugin, inst.graph, structure=structure)
        assert res.answer == expected, (type(plugin).__name__, inst)
        assert res.bag_count == len(expanded.rooted.bags)
    assert nodes < bags / 2


def test_answers_agree_on_interval_expanded_and_vim_trees():
    # the engine solves on any valid rooted decomposition and reports its
    # width as phi: the minimum TIM width on the interval tree and the tree
    # with one node per bag, omega on the tree of one F_t bag plus
    # singletons per time
    rng = random.Random(19)
    wider = 0
    for _ in range(50):
        g = gen_random(rng.randint(2, 6), rng.randint(1, 5), 0.3, max_times_per_edge=2,
                       seed=rng.randrange(1 << 30))
        if not g.time_edges:
            continue
        wider += vim_sequence(g).width > tim_width(g)
        for plugin, inst in four_plugin_cases(g, rng):
            h = inst.graph
            trees = (
                (interval_decomposition(h), tim_width(h)),
                (compute_tim_decomposition(h), tim_width(h)),
                (decomposition_from_vim(h), vim_sequence(h).width),
            )
            answers = set()
            for d, width in trees:
                assert validate_decomposition(h, d).ok
                structure = TwoStepStructure(h, d)
                res = solve_component_exchangeable(plugin, h, structure=structure)
                assert res.phi == width
                answers.add(res.answer)
            assert len(answers) == 1, (type(plugin).__name__, inst)
    assert wider


def test_interval_tree_grows_with_time_edges_not_bags():
    g = gen_hard_ham_path(160)
    assert len(TwoStepStructure(g).rooted.bags) <= 2 * len(g.time_edges) + g.n


def test_root_must_name_a_node():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    d = interval_decomposition(g)
    for bad in (999, -1, 6):
        with pytest.raises(ValueError):
            root_and_augment(d, bad)
    # four nodes and two time-0 copies: 5 names the second copy
    rd = TwoStepStructure(g, d, 5).rooted
    assert rd.copy_of[rd.root] == 1
    # vertex 1 idles over 2..3 and vertex 2 over 1..3, before Lambda = 4;
    # vertex 0 idles over 2..4 and roots its tree whole
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 4)])
    d = interval_decomposition(g)
    runs = {(min(bag), t, end) for bag, t, end in zip(d.bags, d.times, d.ends) if t < end}
    assert runs == {(1, 2, 3), (2, 1, 3), (0, 2, 4)}
    for i, (bag, t, end) in enumerate(zip(d.bags, d.times, d.ends)):
        if end == 3:
            with pytest.raises(ValueError, match="expanded"):
                root_and_augment(d, i)
        elif t < end:
            assert root_and_augment(d, i).root == i


def test_one_vertex_answers_do_not_depend_on_the_vertex():
    # fold_idle_run asks check and successors once per timestep for all
    # one-vertex edgeless components, so their answers there must not name
    # the vertex
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 2), (0, 3, 2), (2, 3, 3)])
    cases = (
        HamiltonianTimPlugin(HamiltonianInstance(g)),
        FirefighterTimPlugin(FirefighterInstance(g, 0, 1)),
        MatchingTimPlugin(MatchingInstance(g, 2, 1)),
        TredTimPlugin(TredInstance(g, 0, g.n, 1)),
    )
    for plugin in cases:
        labels = plugin.labels
        for t in range(1, g.lifetime + 1):
            answers = set()
            for v in range(g.n):
                comp = ComponentGraph(t, (v,), ())
                checks = tuple(
                    plugin.check((l,), comp, role) for role in ("val", "fin") for l in labels
                )
                succ = tuple(frozenset(plugin.successors((l,), comp)) for l in labels)
                answers.add((checks, succ))
            assert len(answers) == 1, (type(plugin).__name__, t)


def test_hard_family_materialises_few_profiles():
    # run folding keeps one table per run, not one per idle bag; without it
    # this solve materialised 83,446 profile entries
    answer, res = solve_hamiltonian(gen_hard_ham_path(80), "tim")
    assert not answer
    assert sum(res.profile_counts.values()) < 83_446 // 2


def test_firefighter_heavy_tail_stays_small():
    # one free 6-vertex component hands 4,096 profiles up to a bag whose own
    # components are free too; a nested-loop join that kept every total
    # took over a minute on target 9, with a largest table of 174,861
    g = gen_random(10, 10, 0.25, max_times_per_edge=2, seed=2)
    for target, expected in ((9, True), (10, False)):
        inst = FirefighterInstance(g, 0, target)
        answer, res = solve_firefighter(inst, "tim")
        assert answer == solve_firefighter(inst, "vim")[0] == expected
        assert max(res.profile_counts.values()) <= 57_870


def test_shared_cache_folds_like_a_fresh_one(monkeypatch):
    # the solve shares one seen table across all its interval nodes, both
    # walk directions and runs of many lengths; a cache key that forgot the
    # direction, the rows or the stretch length would fold differently
    walks = []

    def fold_twice(structure, plugin, node, base_results, seen):
        shared = fold_idle_run(structure, plugin, node, base_results, seen)
        assert shared == fold_idle_run(structure, plugin, node, base_results, {})
        rd = structure.rooted
        below, top = rd.times[rd.children[node][0]], rd.times[node]
        walks.append((type(plugin), below > top, abs(top - below)))
        return shared

    monkeypatch.setattr(tim_engine, "fold_idle_run", fold_twice)
    rng = random.Random(15)
    for _ in range(6):
        g = _sparse_long_graph(rng)
        for plugin, inst in four_plugin_cases(g, rng):
            d = interval_decomposition(inst.graph)
            nodes = one_bag_nodes(d)
            for root in (None, nodes[len(nodes) // 2]):
                structure = TwoStepStructure(inst.graph, d, root)
                solve_component_exchangeable(plugin, inst.graph, structure=structure)
    hard = gen_hard_ham_path(35)
    d = interval_decomposition(hard)
    for root in (None, one_bag_nodes(d)[0]):
        structure = TwoStepStructure(hard, d, root)
        solve_component_exchangeable(
            HamiltonianTimPlugin(HamiltonianInstance(hard)), hard, structure=structure
        )
    assert {(cls, back) for cls, back, _ in walks} == {
        (cls, back) for cls in REFERENCE_TR for back in (False, True)
    }
    assert len({length for _, _, length in walks}) > 10


def _reversed_in_time(g):
    return TemporalGraph(g.n, [(u, v, g.lifetime + 1 - t) for u, v, t in g.time_edges])


def _permuted(g, perm):
    return TemporalGraph(g.n, [(perm[u], perm[v], t) for u, v, t in g.time_edges])


def _relabelled(g, rng):
    return _permuted(g, rng.sample(range(g.n), g.n))


def test_tim_width_survives_relabelling_and_time_reversal():
    # a TIM decomposition carries over to the relabelled graph through the
    # permutation, and to the reversed graph with its bags at the reversed
    # times, so the minimum width stays the same
    rng = random.Random(19)
    widths = []
    for _ in range(300):
        n = rng.randint(2, 9)
        g = gen_random(
            n, rng.randint(1, 9), rng.choice((0.15, 0.3, 0.45)),
            max_times_per_edge=2, seed=rng.randrange(1 << 30),
        )
        if not g.time_edges:
            continue
        width = tim_width(g)
        assert tim_width(_relabelled(g, rng)) == tim_width(_reversed_in_time(g)) == width, g
        widths.append(width)
    assert len(widths) > 200 and len(set(widths)) > 3


def _planted_path(g, rng):
    """g plus a strict temporal path through every vertex, and g plus that
    path without one of its edges."""
    order = rng.sample(range(g.n), g.n)
    times = sorted(rng.sample(range(1, g.lifetime + 1), g.n - 1))
    path = {(min(a, b), max(a, b), t) for a, b, t in zip(order, order[1:], times)}
    cut = rng.choice(sorted(path))
    edges = set(g.time_edges) | path
    return TemporalGraph(g.n, edges), TemporalGraph(g.n, edges - {cut})


def _max_matching(g, delta):
    lo, hi = 0, len(g.time_edges)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if solve_matching(MatchingInstance(g, delta, mid))[0] else (lo, mid - 1)
    return lo


def test_answers_survive_time_reversal_and_relabelling():
    # reversing time (t -> lifetime + 1 - t) turns every idle run's walk
    # around, and relabelling the vertices moves the root; neither changes
    # whether a Hamiltonian path or a delta-temporal matching of a size exists
    rng = random.Random(16)
    graphs = []
    for _ in range(6):
        g = _sparse_long_graph(rng)
        graphs += [g, *_planted_path(g, rng)]
    hard = [gen_hard_ham_path(20), gen_hard_ham_path(35)]
    answers = set()
    for g in graphs + hard:
        variants = (_reversed_in_time(g), _relabelled(g, rng))
        expected = solve_hamiltonian(g, "tim")[0]
        answers.add(expected)
        for h in variants:
            assert solve_hamiltonian(h, "tim")[0] == expected, (g, h)
        delta = rng.randint(1, 3)
        size = _max_matching(g, delta)
        for h in variants:
            assert solve_matching(MatchingInstance(h, delta, size))[0], (g, h, delta, size)
            assert not solve_matching(MatchingInstance(h, delta, size + 1))[0], (g, h, delta, size)
    assert answers == {True, False}


def _max_saved(g, root):
    return max(k for k in range(g.n + 1) if solve_firefighter(FirefighterInstance(g, root, k), "tim")[0])


def _min_reached(g, source, deletions):
    return min(k for k in range(1, g.n + 1) if solve_tred(TredInstance(g, source, k, deletions))[0])


def test_firefighter_and_tred_survive_relabelling():
    # relabelling moves the root, and with it which children each bag joins
    # up; the most vertices saved and the fewest reached stay the same
    rng = random.Random(18)
    graphs = []
    for _ in range(6):
        g = _sparse_long_graph(rng)
        graphs += [g, *_planted_path(g, rng)]
    moved = 0
    for g in graphs:
        perm = rng.sample(range(g.n), g.n)
        h = _permuted(g, perm)
        rg, rh = TwoStepStructure(g).rooted, TwoStepStructure(h).rooted
        moved += {(rh.times[r], rh.bags[r]) for r in rh.roots} != {
            (rg.times[r], frozenset(perm[v] for v in rg.bags[r])) for r in rg.roots
        }
        root = rng.choice([v for e in g.time_edges for v in e[:2]])
        saved = _max_saved(g, root)
        assert solve_firefighter(FirefighterInstance(h, perm[root], saved), "tim")[0]
        if saved < g.n:
            assert not solve_firefighter(FirefighterInstance(h, perm[root], saved + 1), "tim")[0]
        deletions = rng.randint(0, 2)
        reached = _min_reached(g, root, deletions)
        assert solve_tred(TredInstance(h, perm[root], reached, deletions))[0]
        if reached > 1:
            assert not solve_tred(TredInstance(h, perm[root], reached - 1, deletions))[0]
    assert moved >= len(graphs) // 2


def _with_empty_step(g, s):
    """g with an empty timestep inserted before time s."""
    return TemporalGraph(g.n, [(u, v, t + (t >= s)) for u, v, t in g.time_edges])


def test_ham_and_tred_survive_an_inserted_empty_timestep():
    # an empty timestep lengthens the idle runs through it and keeps the
    # order of the time-edges, so strict temporal paths, and with them
    # Hamiltonian paths and reachability, stay as they are; firefighter
    # (its budget accrues per timestep) and matching (gaps between edges
    # grow) may change their answers
    rng = random.Random(20)
    ham, tred = set(), set()
    for _ in range(40):
        n = rng.randint(4, 8)
        g = gen_random(
            n, rng.randint(4, 10), rng.choice((0.2, 0.35)),
            max_times_per_edge=2, seed=rng.randrange(1 << 30),
        )
        if g.lifetime >= n - 1:
            g = rng.choice(_planted_path(g, rng))
        if not g.time_edges:
            continue
        h = _with_empty_step(g, rng.randint(1, g.lifetime))
        expected = solve_hamiltonian(g, "tim")[0]
        assert solve_hamiltonian(h, "tim")[0] == expected, (g, h)
        ham.add(expected)
        source = rng.choice([v for e in g.time_edges for v in e[:2]])
        params = (source, rng.randint(1, n), rng.randint(0, 2))
        expected = solve_tred(TredInstance(g, *params))[0]
        assert solve_tred(TredInstance(h, *params))[0] == expected, (g, h, params)
        tred.add(expected)
    assert ham == tred == {True, False}


def test_bag_asks_tr_once_per_component_and_earlier_labelling(monkeypatch):
    # a bag's own components take their options, and its up-children's
    # checked components their successor sets, from memos local to the
    # call: within one call no (component, earlier labelling) reaches
    # successors twice, however many combinations of children share it
    asked = []
    inside = []

    def counting(successors):
        def wrapped(self, prev_labelling, comp):
            if inside:
                inside[-1][comp.t, comp.vertices, prev_labelling] += 1
            return successors(self, prev_labelling, comp)
        return wrapped

    def counted(*args, **kwargs):
        inside.append(Counter())
        try:
            return realisable_profiles(*args, **kwargs)
        finally:
            asked.append(inside.pop())

    for cls in REFERENCE_TR:
        monkeypatch.setattr(cls, "successors", counting(cls.successors))
    monkeypatch.setattr(tim_engine, "realisable_profiles", counted)
    rng = random.Random(21)
    cases = [case for _ in range(4) for case in four_plugin_cases(_sparse_long_graph(rng), rng)]
    cases += four_plugin_cases(SEARCH_GRAPH, rng)
    # the heavy firefighter graph: 34,050 successors calls when each
    # combination of down-children asked Tr again
    g = gen_random(12, 12, 0.2, max_times_per_edge=2, seed=4)
    inst = normalize_firefighter(FirefighterInstance(g, 0, 6))
    cases.append((FirefighterTimPlugin(inst), inst))
    for plugin, inst in cases:
        solve_component_exchangeable(plugin, inst.graph)
    assert sum(sum(bag.values()) for bag in asked) > 1000
    assert all(count == 1 for bag in asked for count in bag.values())


def previous_join(structure, plugin, node, child_results):
    """realisable_profiles as it was before it read labels by position: a
    label map per entry and per rho, the down-children's totals summed
    from a zero vector, each rho's sums built apart and then merged."""
    rd, own_comps = structure.rooted, structure.own_comps
    t = rd.times[node]
    role = "start" if t == 0 else ("fin" if t == structure.graph.lifetime else "val")
    down = [c for c in rd.children[node] if rd.times[c] == t - 1]
    up = [c for c in rd.children[node] if rd.times[c] == t + 1]
    own = own_comps[node]
    moved = structure.parent_checks[node]
    tr_here = [t >= 1 and x not in moved for x in range(len(own))]

    def sumset(base, sets):
        acc = {tuple(base)}
        for s in sets:
            acc = {tuple(a + b for a, b in zip(x, y)) for x in acc for y in s}
        return acc

    option_cache = {}

    def options_of(x, prev):
        opts = option_cache.get((x, prev))
        if opts is None:
            comp = own[x]
            if prev is None:
                opts = plugin.assignments(comp, role)
            else:
                succ = plugin.successors(prev, comp)
                checked = ((l, plugin.check(l, comp, role)) for l in succ)
                opts = [(l, vec) for l, vec in checked if vec is not None]
            option_cache[x, prev] = opts
        return opts

    free_options = [None if here else options_of(x, None) for x, here in enumerate(tr_here)]
    up_checks = {c: structure.parent_checks[c] for c in up}
    up_need = {
        c: sorted({v for i in up_checks[c] for v in own_comps[c][i].vertices} & rd.bags[node])
        for c in up
    }
    up_cache = {c: {} for c in up}
    up_groups = {}
    succ_cache = {}

    def successor_set(c, i, prev):
        succ = succ_cache.get((c, i, prev))
        if succ is None:
            succ = succ_cache[c, i, prev] = frozenset(plugin.successors(prev, own_comps[c][i]))
        return succ

    def groups_of(c):
        groups = up_groups.get(c)
        if groups is None:
            groups = up_groups[c] = {}
            for (rho_c, extra_c), totals_c in child_results[c].items():
                by_nxt = groups.setdefault(extra_c, {})
                nxt = tuple(rho_c[i][0] for i in up_checks[c])
                by_nxt[nxt] = by_nxt[nxt] | totals_c if nxt in by_nxt else totals_c
        return groups

    def filter_up(c, own_label_at):
        restriction = tuple(own_label_at[v] for v in up_need[c])
        cache = up_cache[c]
        if restriction in cache:
            return cache[restriction]
        combined = set()
        for extra_c, by_nxt in groups_of(c).items():
            label_at = dict(extra_c)
            label_at.update(zip(up_need[c], restriction))
            succs = [
                successor_set(c, i, tuple(label_at[v] for v in own_comps[c][i].vertices))
                for i in up_checks[c]
            ]
            for nxt in product(*succs):
                if nxt in by_nxt:
                    combined |= by_nxt[nxt]
        cache[restriction] = combined = _minimal(combined)
        return combined

    def label_at_of(comps, rho):
        return {
            v: l
            for comp, (labelling, _vec) in zip(comps, rho)
            for v, l in zip(comp.vertices, labelling)
        }

    down_entries = [
        [(label_at_of(own_comps[c], rho_c), totals_c)
         for (rho_c, _extra), totals_c in child_results[c].items()]
        for c in down
    ]
    results = {}
    for down_combo in product(*down_entries):
        prev_label_at = {}
        for label_at_c, _totals in down_combo:
            prev_label_at.update(label_at_c)
        extra = tuple((v, prev_label_at[v]) for v in structure.extra_vertices[node])
        down_sets = [totals for _, totals in down_combo]
        if len(down_sets) > 1:
            zero = (0,) * len(next(iter(down_sets[0])))
            down_sets = [sumset(zero, down_sets)]
        options = [
            opts if opts is not None
            else options_of(x, tuple(prev_label_at[v] for v in own[x].vertices))
            for x, opts in enumerate(free_options)
        ]
        for rho in product(*options):
            own_label_at = label_at_of(own, rho)
            joined = [filter_up(c, own_label_at) for c in up]
            if not all(joined):
                continue
            own_sum = tuple(map(sum, zip(*(vec for _, vec in rho))))
            results.setdefault((rho, extra), set()).update(sumset(own_sum, down_sets + joined))
    return {key: _minimal(totals) for key, totals in results.items()}


def previous_fold(structure, plugin, node, base_results, seen):
    """fold_idle_run as it was before the one-vertex answers were shared
    between the walk directions: each (time, direction) asks the plugin."""
    rd = structure.rooted
    lam = structure.graph.lifetime
    labels = [(label,) for label in plugin.labels]
    v = min(rd.bags[node])

    def rows(t, back):
        powers = seen.get((t, back))
        if powers is None:
            tr_comp = ComponentGraph(t + 1 if back else t, (v,), ())
            succ = {c: frozenset(plugin.successors(c, tr_comp)) for c in labels}
            comp = ComponentGraph(t, (v,), ())
            role = "start" if t == 0 else ("fin" if t == lam else "val")
            row = tuple(
                (d, vec, ((succ[d] if back else frozenset(c for c in labels if d in succ[c]), vec),))
                for d, vec in plugin.assignments(comp, role)
            )
            powers = seen[t, back] = seen.setdefault(row, [row])
        return powers

    below, top = rd.times[rd.children[node][0]], rd.times[node]
    back = below > top
    step = -1 if back else 1
    stretch_end = seen.setdefault(("ends", back), {})

    def stretch(t, end):
        powers, path, u = rows(t, back), [], t
        while True:
            path.append(u)
            u = stretch_end.get(u, u + step)
            if (u - end) * step >= 0 or rows(u, back) is not powers:
                break
        stretch_end.update(dict.fromkeys(path, u))
        return end if (u - end) * step > 0 else u

    by_label = {}
    for (((labelling, _vec),), _extra), totals in base_results.items():
        by_label.setdefault(labelling, set()).update(totals)
    t, end = below + step, top + step
    while t != end:
        powers, u = rows(t, back), stretch(t, end)
        k, t = (u - t) * step, u
        while len(powers) < k:
            powers.append(tim_engine._compose(powers[0], powers[-1]))
        prev, by_label, vectors = by_label, {}, {}
        for labelling, vec, pairs in powers[k - 1]:
            incoming = set()
            for sources, offset in pairs:
                reached = set()
                for c in sources & prev.keys():
                    reached |= prev[c]
                if any(offset):
                    reached = {tuple(a + b for a, b in zip(total, offset)) for total in reached}
                incoming |= reached
            if incoming:
                by_label[labelling], vectors[labelling] = incoming, vec
    return {
        (((labelling, vectors[labelling]),), ()): _minimal(totals)
        for labelling, totals in by_label.items()
    }


def test_join_tables_equal_previous_join(monkeypatch):
    # the positional join and the fold that asks one-vertex answers once per
    # time give the previous tables at every node of the interval tree, fed
    # the same child tables; the tables go on capped as the solve caps them
    one_vertex_asks = []
    inside_fold = []

    def counting(successors):
        def wrapped(self, prev_labelling, comp):
            if inside_fold and len(comp.vertices) == 1:
                one_vertex_asks[-1][comp.t, prev_labelling] += 1
            return successors(self, prev_labelling, comp)
        return wrapped

    for cls in REFERENCE_TR:
        monkeypatch.setattr(cls, "successors", counting(cls.successors))
    rng = random.Random(27)
    cases = [case for _ in range(6) for case in four_plugin_cases(_sparse_long_graph(rng), rng)]
    cases += four_plugin_cases(SEARCH_GRAPH, rng)
    inst = HamiltonianInstance(gen_hard_ham_path(35))
    cases.append((HamiltonianTimPlugin(inst), inst))
    shapes = set()
    both_ways = 0
    for plugin, inst in cases:
        d = interval_decomposition(inst.graph)
        limit = plugin.total_cap
        for root in (None, one_bag_nodes(d)[len(one_bag_nodes(d)) // 2]):
            structure = TwoStepStructure(inst.graph, d, root)
            rd = structure.rooted
            seen, previous_seen, tables = {}, {}, {}
            one_vertex_asks.append(Counter())
            for node in structure.postorder():
                children = {c: tables.pop(c) for c in rd.children[node]}
                if _is_interval(rd, node):
                    (base,) = children.values()
                    inside_fold.append(node)
                    table = fold_idle_run(structure, plugin, node, base, seen)
                    inside_fold.pop()
                    expected = previous_fold(structure, plugin, node, base, previous_seen)
                else:
                    table = realisable_profiles(structure, plugin, node, children)
                    expected = previous_join(structure, plugin, node, children)
                    t = rd.times[node]
                    shapes.add((sum(rd.times[c] == t - 1 for c in children),
                                sum(rd.times[c] == t + 1 for c in children)))
                assert table == expected, (type(plugin).__name__, inst.graph, node)
                if limit is not None:
                    table = {key: kept for key, totals in table.items()
                             if (kept := {x for x in totals if all(map(le, x, limit))})}
                tables[node] = table
            assert all(count == 1 for count in one_vertex_asks[-1].values())
            # the rows of (time, whether the walk goes back), among the cache's other keys
            walked = {key for key in seen if type(key) is tuple and len(key) == 2 and type(key[0]) is int}
            both_ways += sum((t, not back) in walked for t, back in walked if back)
    assert {down for down, _ in shapes} >= {0, 1, 2}
    assert {up for _, up in shapes} >= {0, 1, 2}
    assert sum(map(len, one_vertex_asks)) > 100
    assert both_ways > 50


def previous_solve(plugin, g, cap, structure):
    """solve_component_exchangeable's post-order loop as it was before it
    popped each child's table once and capped and counted in one pass: a
    child dict per node, a capped copy of each table, then its count."""
    rd = structure.rooted
    limit = plugin.total_cap
    idle_seen = {}
    results = {}
    profile_counts = {}
    bag_count = 0
    for node in structure.postorder():
        children = rd.children[node]
        run = len(rd.bags[node]) == len(children) == 1 and len(rd.bags[children[0]]) == 1
        bag_count += abs(rd.times[node] - rd.times[children[0]]) if run else 1
        if not all(results[c] for c in children):
            res = {}
        elif run:
            res = fold_idle_run(structure, plugin, node, results[children[0]], idle_seen)
        else:
            child_results = {c: results[c] for c in children}
            res = realisable_profiles(structure, plugin, node, child_results, cap)
        for c in children:
            del results[c]
        if limit is not None and res:
            capped = {}
            for key, totals in res.items():
                over = [total for total in totals if not all(map(le, total, limit))]
                if over:
                    totals = totals.difference(over)
                if totals:
                    capped[key] = totals
            res = capped
        results[node] = res
        profile_counts[node] = sum(len(v) for v in res.values())

    per_tree = []
    for root in rd.roots:
        combined = set()
        for totals in results[root].values():
            combined |= totals
        per_tree.append(_minimal(combined))
    vu = plugin.v_upper
    if any(not tree for tree in per_tree):
        answer = False
    else:
        overall = tim_engine._add_sums(set(), (0,) * len(vu), per_tree)
        answer = any(all(map(le, total, vu)) for total in overall)
    return TimSolveResult(answer, rd.width, profile_counts, bag_count, g.n, g.lifetime)


def test_solve_loop_equals_previous_loop():
    cases = [
        (HamiltonianTimPlugin(inst), inst)
        for inst in (HamiltonianInstance(gen_hard_ham_path(n)) for n in range(20, 81, 15))
    ]
    rng = random.Random(33)
    for _ in range(6):
        cases += four_plugin_cases(_sparse_long_graph(rng), rng)
    cases += four_plugin_cases(SEARCH_GRAPH, rng)
    # a forest: two trees, each with its own root
    forest = TemporalGraph(7, [(0, 1, 1), (1, 2, 2), (0, 2, 4), (3, 4, 1), (4, 5, 3), (5, 6, 2), (3, 6, 4)])
    cases += four_plugin_cases(forest, rng)
    kinds = set()
    for plugin, inst in cases:
        g = inst.graph
        structure = TwoStepStructure(g)
        res = solve_component_exchangeable(plugin, g, structure=structure)
        assert res == previous_solve(plugin, g, tim_engine.DEFAULT_PROFILE_CAP, structure), (
            type(plugin).__name__,
            g,
        )
        kinds.add((type(plugin), plugin.total_cap is not None, len(structure.rooted.roots) > 1, res.answer))
    capped = {cls for cls, is_capped, _, _ in kinds if is_capped}
    uncapped = {cls for cls, is_capped, _, _ in kinds if not is_capped}
    assert capped == {HamiltonianTimPlugin}
    assert uncapped >= {FirefighterTimPlugin, TredTimPlugin}
    assert any(forest for _, _, forest, _ in kinds)
    assert {answer for *_, answer in kinds} == {True, False}


def test_default_solve_enters_each_structure_layer_once(monkeypatch):
    # perfbench times its per-layer spans by these module attributes; a solve
    # that stopped calling through them would leave those spans blank
    calls = Counter()
    for name in ("root_and_augment", "build_two_step"):
        def counted(*args, _inner=getattr(tim_engine, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(tim_engine, name, counted)
    g = gen_hard_ham_path(20)
    solve_component_exchangeable(HamiltonianTimPlugin(HamiltonianInstance(g)), g)
    assert calls == {"root_and_augment": 1, "build_two_step": 1}
