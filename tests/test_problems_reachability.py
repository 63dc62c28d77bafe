import pytest

from timwidth.core import TemporalGraph
from timwidth.oracles import oracle_tred
from timwidth.problems import TredInstance, TredTimPlugin, solve_tred
from timwidth.problems.reachability import label_validity_deletions
from timwidth.tim_engine import ComponentGraph

from .conftest import random_graph


def test_label_validity_on_triangle():
    comp = ComponentGraph(1, (0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    assert label_validity_deletions(("R", "U", "U"), comp) == 2
    assert label_validity_deletions(("R", "N", "U"), comp) == 1
    assert label_validity_deletions(("U", "U", "U"), comp) == 0


def test_transition_example():
    plugin = TredTimPlugin(TredInstance(TemporalGraph(3, [(0, 1, 1), (1, 2, 1)]), 0, 1, 1))
    comp = ComponentGraph(1, (0, 1, 2), ((0, 1), (1, 2)))
    assert ("R", "N", "U") in plugin.successors(("N", "U", "U"), comp)
    # deleting the connecting edge keeps the neighbour unreached
    assert ("R", "U", "U") in plugin.successors(("N", "U", "U"), comp)
    # reached vertices never revert
    assert ("U", "U", "U") not in plugin.successors(("R", "U", "U"), comp)
    # a vertex cannot become current without a reached neighbour
    assert ("R", "U", "N") not in plugin.successors(("N", "U", "U"), comp)


def test_trivial_cases():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    # without deletions everything is reached
    assert solve_tred(TredInstance(g, 0, 3, 0))[0]
    assert not solve_tred(TredInstance(g, 0, 2, 0))[0]
    # cutting the first edge isolates the source
    assert solve_tred(TredInstance(g, 0, 1, 1))[0]


def test_engine_matches_oracle(rng):
    for _ in range(50):
        g = random_graph(rng, n_max=5, lam_max=4)
        source = rng.randrange(g.n)
        r = rng.randint(1, g.n)
        h = rng.randint(0, 2)
        expected = oracle_tred(g, source, r, h)
        got = solve_tred(TredInstance(g, source, r, h))[0]
        assert got == expected, (g, source, r, h)


def test_plugin_routines_are_pure(rng):
    plugin = TredTimPlugin(TredInstance(TemporalGraph(3, [(0, 1, 1)]), 0, 1, 1))
    comp = ComponentGraph(1, (0, 1), ((0, 1),))
    for _ in range(20):
        lab1 = tuple(rng.choice("RNU") for _ in range(2))
        lab2 = tuple(rng.choice("RNU") for _ in range(2))
        first = lab2 in plugin.successors(lab1, comp)
        assert (lab2 in plugin.successors(lab1, comp)) == first


@pytest.mark.parametrize(
    "source, max_reached, max_deletions, message",
    [
        (3, 1, 0, "source out of range"),
        (-1, 1, 0, "source out of range"),
        (0, -1, 0, "bounds must be nonnegative"),
        (0, 1, -1, "bounds must be nonnegative"),
    ],
)
def test_solve_tred_refuses_bad_instances(source, max_reached, max_deletions, message):
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_tred(TredInstance(g, source, max_reached, max_deletions))
