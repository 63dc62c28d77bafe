"""The problem plugins generate their St/Val/Fin assignments; the base class's
generate-and-test default stays the specification they must match."""

import random
from collections import Counter

from timwidth.core import ComponentGraph, _components
from timwidth.generators import gen_random
from timwidth.problems import (
    FirefighterInstance,
    FirefighterTimPlugin,
    HamiltonianInstance,
    HamiltonianTimPlugin,
    MatchingInstance,
    MatchingTimPlugin,
    TredInstance,
    TredTimPlugin,
    normalize_firefighter,
)
from timwidth.tim_engine import TimProblemPlugin, solve_component_exchangeable

from .test_acceptance import _random_instance_graph

ROLES = ("start", "val", "fin")


def snapshot_components(g):
    """Every timed component of g, time 0 taking time 1's snapshot."""
    for t in range(g.lifetime + 1):
        edges = g.edges_at(max(t, 1))
        for verts in _components(g.n, edges):
            vset = set(verts)
            yield ComponentGraph(t, tuple(verts), tuple(e for e in edges if e[0] in vset))


def plugin_cases(g, comp):
    """Each plugin on g; ff's root and tred's source inside and outside comp."""
    yield HamiltonianTimPlugin(HamiltonianInstance(g))
    for delta in (1, 2, 3):
        yield MatchingTimPlugin(MatchingInstance(g, delta, 1))
    outside = [v for v in range(g.n) if v not in comp.vertices]
    for v in (comp.vertices[-1], *outside[:1]):
        yield FirefighterTimPlugin(FirefighterInstance(g, v, 1))
        yield TredTimPlugin(TredInstance(g, v, 1, 1))


def test_generated_assignments_equal_product():
    # the product of the label set below this size runs in the test's budget
    max_product = 4_096
    rng = random.Random(23)
    seen = Counter()
    for _ in range(16):
        n = rng.randint(1, 7)
        g = gen_random(n, rng.randint(1, 3), 0.45, max_times_per_edge=2, seed=rng.randrange(1 << 30))
        for comp in snapshot_components(g):
            for plugin in plugin_cases(g, comp):
                if len(plugin.labels) ** len(comp.vertices) > max_product:
                    continue
                for role in ROLES:
                    got = plugin.assignments(comp, role)
                    want = TimProblemPlugin.assignments(plugin, comp, role)
                    assert len(got) == len(set(got)), (type(plugin).__name__, role, comp)
                    assert set(got) == set(want), (type(plugin).__name__, role, comp)
                    seen[type(plugin).__name__, role, len(comp.vertices) >= 5] += 1
    names = {name for name, _, _ in seen}
    assert len(names) == 4
    assert all(seen[name, role, True] for name in names for role in ROLES)


def product_plugin(plugin, inst):
    """The same plugin with the base class's generate-and-test assignments."""

    class Product(type(plugin)):
        assignments = TimProblemPlugin.assignments

    return Product(inst)


def engine_cases():
    """Seeded instances shaped like the criterion-4 suites, plus matching at
    n 6-7 with delta 3 and firefighter at n 6."""
    cases = []
    rng = random.Random(404)
    for _ in range(10):
        g = _random_instance_graph(rng, 3, 7, 5)
        inst = HamiltonianInstance(g)
        cases.append((HamiltonianTimPlugin(inst), inst))
    rng = random.Random(505)
    for n_lo, n_hi, count in ((3, 6, 10), (6, 6, 3)):
        for _ in range(count):
            g = _random_instance_graph(rng, n_lo, n_hi, 4)
            roots = sorted({v for u, w, _ in g.time_edges for v in (u, w)})
            if roots:
                inst = FirefighterInstance(g, rng.choice(roots), rng.randint(0, g.n))
                inst = normalize_firefighter(inst)
                cases.append((FirefighterTimPlugin(inst), inst))
    rng = random.Random(606)
    for n_lo, n_hi, deltas, count in ((3, 7, (1, 2, 3), 10), (6, 6, (3,), 2), (7, 7, (3,), 1)):
        for _ in range(count):
            g = _random_instance_graph(rng, n_lo, n_hi, 5)
            inst = MatchingInstance(g, rng.choice(deltas), rng.randint(1, 3))
            cases.append((MatchingTimPlugin(inst), inst))
    rng = random.Random(707)
    for _ in range(10):
        g = _random_instance_graph(rng, 3, 7, 5)
        inst = TredInstance(g, rng.randrange(g.n), rng.randint(1, g.n), rng.randint(0, 3))
        cases.append((TredTimPlugin(inst), inst))
    return [(plugin, inst) for plugin, inst in cases if inst.graph.lifetime >= 1]


def test_engine_answers_equal_with_product_assignments():
    cases = engine_cases()
    assert len(cases) > 40
    for plugin, inst in cases:
        got = solve_component_exchangeable(plugin, inst.graph)
        want = solve_component_exchangeable(product_plugin(plugin, inst), inst.graph)
        assert got.answer == want.answer, (type(plugin).__name__, inst)
        assert got.profile_counts == want.profile_counts, (type(plugin).__name__, inst)
        assert got.bag_count == want.bag_count

