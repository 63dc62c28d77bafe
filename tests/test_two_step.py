import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import timwidth
from timwidth.core import TemporalGraph, _components
from timwidth.decomposition import TimDecomposition, compute_tim_decomposition, root_and_augment
from timwidth.problems import HamiltonianInstance, HamiltonianTimPlugin
from timwidth.tim_engine import TwoStepStructure, solve_component_exchangeable

from .conftest import temporal_graphs


def rooted(g):
    return root_and_augment(compute_tim_decomposition(g))


def test_single_bag_rooting():
    g = TemporalGraph(2, [(0, 1, 1)])
    rd = rooted(g)
    assert len(rd.roots) == 1
    assert rd.times[rd.root] == 1
    copies = [i for i, t in enumerate(rd.times) if t == 0]
    assert len(copies) == 1
    assert rd.bags[copies[0]] == rd.bags[rd.root]
    assert rd.parent[copies[0]] == rd.root


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_added_leaves_count_and_width(g):
    if g.lifetime == 0:
        return
    d = compute_tim_decomposition(g)
    rd = root_and_augment(d)
    time1 = sum(1 for t in d.times if t == 1)
    time0 = sum(1 for t in rd.times if t == 0)
    assert time0 == time1
    assert rd.width == d.width
    for c, orig in rd.copy_of.items():
        assert rd.bags[c] == rd.bags[orig]
        assert not rd.children[c]  # copies are leaves


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_two_step_bag_shape(g):
    if g.lifetime == 0:
        return
    d = compute_tim_decomposition(g)
    ts = TwoStepStructure(g, d)
    rd = ts.rooted
    phi = d.width
    assert ts.width <= 3 * phi * phi
    assert ts.width == max(len(p) for p in ts.pairs)
    for s in range(len(rd.bags)):
        times_present = {t for _, t in ts.pairs[s]}
        assert times_present <= {rd.times[s] - 1, rd.times[s], rd.times[s] + 1}
        own = {(v, rd.times[s]) for v in rd.bags[s]}
        assert own <= ts.pairs[s]
        # a child's time differs from its parent's and bags at one time are
        # disjoint, so |B2(s)| is |B(s)| plus the children's |B(c)|
        assert len(ts.pairs[s]) == len(rd.bags[s]) + sum(len(rd.bags[c]) for c in rd.children[s])
        if not rd.children[s]:
            assert ts.pairs[s] == frozenset(own)


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_pairs_appear_at_most_twice_in_adjacent_bags(g):
    if g.lifetime == 0:
        return
    ts = TwoStepStructure(g, compute_tim_decomposition(g))
    rd = ts.rooted
    holders = {}
    for s, pairs in enumerate(ts.pairs):
        for pair in pairs:
            holders.setdefault(pair, []).append(s)
    for pair, nodes in holders.items():
        assert 1 <= len(nodes) <= 2
        if len(nodes) == 2:
            a, b = nodes
            assert rd.parent[a] == b or rd.parent[b] == a


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_component_pairs_live_in_at_most_one_child(g):
    if g.lifetime == 0:
        return
    ts = TwoStepStructure(g, compute_tim_decomposition(g))
    rd = ts.rooted
    for s in range(len(rd.bags)):
        for t, comp in ts.components[s]:
            pair_set = {(v, t) for v in comp}
            children_holding = [
                c for c in rd.children[s] if pair_set & ts.pairs[c]
            ]
            assert len(children_holding) <= 1
            for c in children_holding:
                assert pair_set <= ts.pairs[c]


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_components_are_the_snapshot_components_of_the_bags(g):
    if g.lifetime == 0:
        return
    ts = TwoStepStructure(g, compute_tim_decomposition(g))
    rd = ts.rooted
    for s, children in enumerate(rd.children):
        # time 0 takes the components of the first snapshot
        expected = sorted(
            (rd.times[x], comp)
            for x in (s, *children)
            for comp in _components(g.n, g.edges_at(rd.times[x] or 1))
            if rd.bags[x] & set(comp)
        )
        assert ts.components[s] == tuple(expected)


# the tree of the first graph has bags {0, 2} and {1} at time 2, which split
# the second graph's time-2 component {1, 2}
HANDED_TREE_PROBE = """
from timwidth.core import TemporalGraph
from timwidth.decomposition import compute_tim_decomposition
from timwidth.tim_engine import TwoStepStructure
first = TemporalGraph(3, [(0, 1, 1), (0, 2, 2)])
second = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
TwoStepStructure(second, compute_tim_decomposition(first))
"""
SPLIT_MESSAGE = "time-edge (1, 2, 2) lies in 0 bags"


def test_handed_tree_that_splits_a_component_is_refused():
    first = TemporalGraph(3, [(0, 1, 1), (0, 2, 2)])
    second = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match=re.escape(SPLIT_MESSAGE)):
        TwoStepStructure(second, compute_tim_decomposition(first))


def test_handed_tree_is_refused_under_python_O():
    # python -O strips asserts, so the check must raise on its own
    package_root = str(Path(timwidth.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", HANDED_TREE_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"ValueError: {SPLIT_MESSAGE}"


F = frozenset
# handed trees that leave a vertex out of every bag at some time: unchecked,
# the first solved a Hamiltonian-path no-instance to yes, the second failed
# inside the join on the missing vertex
GAP_PROBES = [
    (
        TemporalGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 1, 2)]),
        TimDecomposition(4, 2, (F({0, 1, 2, 3}), F({0, 1}), F({2})), (1, 2, 2), ((0, 1), (0, 2))),
        "vertex 3 in no bag at time 2",
    ),
    (
        TemporalGraph(3, [(0, 1, 1), (1, 2, 3)]),
        TimDecomposition(
            3,
            3,
            (F({0, 1}), F({0}), F({1}), F({2}), F({0}), F({1, 2})),
            (1, 2, 2, 2, 3, 3),
            ((0, 1), (0, 2), (1, 4), (2, 5), (3, 5)),
        ),
        "vertex 2 in no bag at time 1",
    ),
]


@pytest.mark.parametrize("g, d, message", GAP_PROBES)
def test_handed_tree_with_a_vertex_in_no_bag_is_refused(g, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_component_exchangeable(
            HamiltonianTimPlugin(HamiltonianInstance(g)), g, structure=TwoStepStructure(g, d)
        )
