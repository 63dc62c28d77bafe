from timwidth.core import TemporalGraph
from timwidth.oracles import oracle_matching
from timwidth.problems import MatchingInstance, matching_tim_plugin, solve_matching
from timwidth.problems.matching import has_perfect_matching, matched_label
from timwidth.tim_engine import ComponentGraph

from .conftest import random_graph


def test_transition_arithmetic_delta2():
    plugin = matching_tim_plugin()
    inst = MatchingInstance(TemporalGraph(2, [(0, 1, 1)]), 2, 1)
    comp = ComponentGraph(1, (0,), ())
    assert plugin.tr(((0, 1, 2),), ((0, 2, 1),), comp, inst)
    assert not plugin.tr(((0, 1, 2),), ((1, 2, 2),), comp, inst)
    # (0,1,1) may become matched when delta == 2
    assert plugin.tr(((0, 1, 1),), ((1, 2, 2),), comp, inst)
    # after a match the window restarts
    assert plugin.tr(((1, 2, 2),), ((0, 1, 1),), comp, inst)
    assert not plugin.tr(((1, 2, 2),), ((1, 2, 2),), comp, inst)


def test_transition_delta1_allows_consecutive_matches():
    plugin = matching_tim_plugin()
    inst = MatchingInstance(TemporalGraph(2, [(0, 1, 1), (0, 1, 2)]), 1, 2)
    comp = ComponentGraph(1, (0,), ())
    assert plugin.tr(((1, 1, 1),), ((1, 1, 1),), comp, inst)
    assert plugin.tr(((0, 1, 1),), ((1, 1, 1),), comp, inst)


def test_validity_perfect_matching():
    plugin = matching_tim_plugin()
    inst = MatchingInstance(TemporalGraph(3, [(0, 1, 1), (1, 2, 1)]), 2, 1)
    m = matched_label(2)
    free = (0, 2, 1)
    comp = ComponentGraph(1, (0, 1, 2), ((0, 1), (1, 2)))
    assert plugin.check((m, m, free), comp, 1, "val", inst) == (-1,)
    # both endpoints matched but no edge between them inside the component
    assert plugin.check((m, free, m), comp, 1, "val", inst) is None


def test_label_dynamics_reach_fixpoint():
    plugin = matching_tim_plugin()
    for delta in (1, 2, 3):
        inst = MatchingInstance(TemporalGraph(2, [(0, 1, 1)]), delta, 0)
        comp = ComponentGraph(1, (0,), ())
        for a in range(1, delta + 1):
            for b in range(1, delta + 1):
                label = (0, a, b)
                for _ in range(delta):
                    nxt = [
                        o
                        for o in plugin._next_options(label, delta)
                        if o[0] == 0
                    ]
                    label = nxt[0]
                assert label == (0, delta, 1)


def test_perfect_matching_helper():
    assert has_perfect_matching([], [])
    assert has_perfect_matching([0, 1], [(0, 1)])
    assert not has_perfect_matching([0, 1], [])
    assert not has_perfect_matching([0, 1, 2], [(0, 1), (1, 2)])
    # even cycle has one, odd path of 4 vertices does too
    assert has_perfect_matching([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    assert not has_perfect_matching([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])


def test_trivial_cases():
    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    assert solve_matching(MatchingInstance(g, 2, 0))[0]
    assert not solve_matching(MatchingInstance(g, 2, 2))[0]
    assert solve_matching(MatchingInstance(g, 1, 2))[0]


def test_engine_matches_oracle(rng):
    for _ in range(50):
        g = random_graph(rng, n_max=5, lam_max=4)
        delta = rng.randint(1, 3)
        h = rng.randint(0, 3)
        expected = oracle_matching(g, delta, h)
        got = solve_matching(MatchingInstance(g, delta, h))[0]
        assert got == expected, (g, delta, h)


def test_matching_across_delta_gap(rng):
    # same edge reused after exactly delta steps
    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 3)])
    assert solve_matching(MatchingInstance(g, 2, 2))[0]
    g2 = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    assert not solve_matching(MatchingInstance(g2, 2, 2))[0]
    # first match late in the lifetime still allowed for large delta
    g3 = TemporalGraph(2, [(0, 1, 1)])
    assert solve_matching(MatchingInstance(g3, 3, 1))[0]
