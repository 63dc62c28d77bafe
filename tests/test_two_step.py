import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import timwidth
from timwidth.core import TemporalGraph, _components
from timwidth.decomposition import (
    build_two_step,
    compute_tim_decomposition,
    root_and_augment,
)
from timwidth.tim_engine import TwoStepStructure

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
    rd = root_and_augment(d)
    ts = build_two_step(rd, g)
    phi = d.width
    assert ts.width <= 3 * phi * phi
    assert ts.width == max(len(p) for p in ts.pairs)
    for s in range(len(rd.bags)):
        times_present = {t for _, t in ts.pairs[s]}
        assert times_present <= {rd.times[s] - 1, rd.times[s], rd.times[s] + 1}
        own = {(v, rd.times[s]) for v in rd.bags[s]}
        assert own <= ts.pairs[s]
        if not rd.children[s]:
            assert ts.pairs[s] == frozenset(own)


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_pairs_appear_at_most_twice_in_adjacent_bags(g):
    if g.lifetime == 0:
        return
    rd = rooted(g)
    ts = build_two_step(rd, g)
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
    rd = rooted(g)
    ts = build_two_step(rd, g)
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
    rd = rooted(g)
    ts = build_two_step(rd, g)
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
from timwidth.decomposition import compute_tim_decomposition, root_and_augment
from timwidth.tim_engine import TwoStepStructure
first = TemporalGraph(3, [(0, 1, 1), (0, 2, 2)])
second = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
TwoStepStructure(second, root_and_augment(compute_tim_decomposition(first)))
"""
SPLIT_MESSAGE = "bag 2 at time 2 splits the snapshot component of vertex 2"


def test_handed_tree_that_splits_a_component_is_refused():
    first = TemporalGraph(3, [(0, 1, 1), (0, 2, 2)])
    second = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match=SPLIT_MESSAGE):
        TwoStepStructure(second, rooted(first))


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
