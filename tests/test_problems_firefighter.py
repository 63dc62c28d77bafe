import random

import pytest

from timwidth.core import TemporalGraph, snapshot
from timwidth.generators import gen_ordered_tree, gen_random
from timwidth.oracles import oracle_firefighter_max
from timwidth.problems import (
    FirefighterInstance,
    FirefighterVimPlugin,
    normalize_firefighter,
    solve_firefighter,
)
from timwidth.problems.firefighter import NEWDEF, FirefighterTimPlugin
from timwidth.tim_engine import ComponentGraph, TimProblemPlugin, solve_component_exchangeable
from timwidth.vim_engine import KXState

from .conftest import random_graph


def state(labels, h, b):
    return KXState.make(labels, (h, b), "U")


def vim_instance(g, root, h):
    return normalize_firefighter(FirefighterInstance(g, root, h))


def test_vim_transition_defend():
    g = TemporalGraph(2, [(0, 1, 1)])
    plugin = FirefighterVimPlugin(FirefighterInstance(g, 0, 1))
    snap = snapshot(g, 1)
    s1 = state({0: "B"}, 1, 1)
    assert plugin.transition(s1, {0: "B", 1: "D"}, snap) == (1, 1)


def test_vim_transition_spread():
    g = TemporalGraph(2, [(0, 1, 1)])
    plugin = FirefighterVimPlugin(FirefighterInstance(g, 0, 1))
    snap = snapshot(g, 1)
    s1 = state({0: "B"}, 1, 1)
    assert plugin.transition(s1, {0: "B", 1: "B"}, snap) == (2, 2)
    # an undefended neighbour must burn
    assert plugin.transition(s1, {0: "B"}, snap) is None


def test_vim_transition_budget_stays_positive():
    g = TemporalGraph(3, [(0, 1, 1), (0, 2, 1)])
    plugin = FirefighterVimPlugin(FirefighterInstance(g, 0, 1))
    snap = snapshot(g, 1)
    s1 = state({0: "B"}, 1, 1)
    assert plugin.transition(s1, {0: "B", 1: "D", 2: "B"}, snap) == (2, 1)
    # two defences from budget 1 would leave budget 0
    assert plugin.transition(s1, {0: "B", 1: "D", 2: "D"}, snap) is None


def test_tim_transition_examples():
    plugin = FirefighterTimPlugin(normalize_firefighter(
        FirefighterInstance(TemporalGraph(3, [(0, 1, 1), (1, 2, 1)]), 0, 1)
    ))
    comp = ComponentGraph(1, (0, 1, 2), ((0, 1), (1, 2)))
    assert ("B", "N", "U") in plugin.successors(("B", "U", "U"), comp)
    assert ("B", "U", "U") not in plugin.successors(("B", "B", "U"), comp)
    # undefended neighbour must burn
    assert ("B", "U", "U") not in plugin.successors(("B", "U", "U"), comp)
    assert ("B", "B", "U") in plugin.successors(("B", "U", "U"), comp)


def test_normalization_shifts_and_credits_budget():
    g = TemporalGraph(3, [(1, 2, 1), (0, 1, 3), (1, 2, 4)])
    inst = normalize_firefighter(FirefighterInstance(g, 0, 1))
    assert inst.start_budget == 3
    assert inst.graph.time_edges == ((0, 1, 1), (1, 2, 2))


def test_isolated_root_saves_everything_else():
    g = TemporalGraph(4, [(1, 2, 1)])
    inst = FirefighterInstance(g, 0, 3)
    assert solve_firefighter(inst, "vim")[0]
    assert solve_firefighter(inst, "tim")[0]
    assert not solve_firefighter(FirefighterInstance(g, 0, 4), "vim")[0]


def test_unknown_engine_rejected_before_shortcuts():
    inst = FirefighterInstance(TemporalGraph(3, [(1, 2, 1)]), 0, 1)
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        solve_firefighter(inst, "bogus")


def test_star_single_round():
    g = TemporalGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert oracle_firefighter_max(g, 0) == 1
    assert solve_firefighter(FirefighterInstance(g, 0, 1), "vim")[0]
    assert not solve_firefighter(FirefighterInstance(g, 0, 2), "vim")[0]


def test_engines_match_oracle(rng):
    for _ in range(35):
        g = random_graph(rng, n_max=5, lam_max=4)
        root = rng.randrange(g.n)
        best = oracle_firefighter_max(g, root)
        for h in range(0, g.n + 1):
            inst = FirefighterInstance(g, root, h)
            expected = best >= h
            assert solve_firefighter(inst, "vim")[0] == expected, (g, root, h)
            assert solve_firefighter(inst, "tim")[0] == expected, (g, root, h)


def test_oracle_modes_agree(rng):
    for _ in range(15):
        g = random_graph(rng, n_max=4, lam_max=3)
        root = rng.randrange(g.n)
        endangered = oracle_firefighter_max(g, root, mode="endangered")
        active = oracle_firefighter_max(g, root, mode="active")
        unrestricted = oracle_firefighter_max(g, root, mode="unrestricted")
        assert endangered == active == unrestricted, (g, root)


class RepeatedDefenceCount(FirefighterTimPlugin):
    """The vectors with a last entry d', the defences the labelling makes,
    capped in v_upper like d_Lambda; assignments generate and test."""

    def __init__(self, instance):
        super().__init__(instance)
        self.v_upper += (instance.start_budget + instance.graph.lifetime - 1,)

    def check(self, labelling, comp, role):
        vec = super().check(labelling, comp, role)
        return None if vec is None else vec + (labelling.count(NEWDEF),)

    def assignments(self, comp, role):
        return TimProblemPlugin.assignments(self, comp, role)


def test_tim_vectors_equal_with_repeated_defence_count():
    rng = random.Random(6767)
    graphs = [
        ("random", gen_random(rng.randint(3, 7), rng.randint(1, 4), 0.4, max_times_per_edge=2,
                              seed=rng.randrange(1 << 30)))
        for _ in range(40)
    ]
    graphs += [
        ("tree", gen_ordered_tree(n, seed=rng.randrange(1 << 30), max_times_per_edge=2))
        for n in range(4, 21, 2)
    ]
    answers = set()
    for kind, g in graphs:
        roots = sorted({v for u, w, _ in g.time_edges for v in (u, w)})
        if not roots:
            continue
        inst = normalize_firefighter(FirefighterInstance(g, rng.choice(roots), rng.randint(g.n // 2, g.n)))
        got = solve_component_exchangeable(FirefighterTimPlugin(inst), inst.graph)
        want = solve_component_exchangeable(RepeatedDefenceCount(inst), inst.graph)
        assert got.answer == want.answer, inst
        assert got.profile_counts == want.profile_counts, inst
        assert got.bag_count == want.bag_count, inst
        answers.add((kind, got.answer))
    # yes and no on both kinds
    assert len(answers) == 4


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda g: solve_firefighter(FirefighterInstance(g, 4, 1)), "root out of range"),
        (lambda g: solve_firefighter(FirefighterInstance(g, -1, 1), "tim"), "root out of range"),
        # vertex 3 has no edge
        (
            lambda g: normalize_firefighter(FirefighterInstance(g, 3, 1)),
            "root has no incident time-edge; instance is trivial",
        ),
    ],
)
def test_firefighter_refuses_bad_roots(refuse, message):
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        refuse(g)
