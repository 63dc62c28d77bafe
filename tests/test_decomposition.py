import hashlib
import random
import re
import signal
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings

from timwidth import decomposition
from timwidth.core import TemporalGraph
from timwidth.decomposition import (
    TimDecomposition,
    compute_tim_decomposition,
    decomposition_from_vim,
    interval_decomposition,
    root_and_augment,
    tim_width,
    validate_decomposition,
)
from timwidth.generators import gen_hard_ham_path, gen_ordered_tree, gen_random
from timwidth.io import emit_decomposition, parse_decomposition
from timwidth.oracles import enumerate_tim_decompositions, min_tim_width_exhaustive
from timwidth.problems import solve_hamiltonian
from timwidth.tim_engine import TwoStepStructure
from timwidth.widths import bidirectional_cvim_width, connected_vim_width, vim_sequence

from .conftest import random_graph, temporal_graphs


def bags_of(d):
    return sorted((t, tuple(sorted(b))) for b, t in zip(d.bags, d.times))


def test_worked_example_no_cycle():
    g = TemporalGraph(3, [(0, 1, 1), (0, 2, 2)])
    d = compute_tim_decomposition(g)
    assert bags_of(d) == [(1, (0, 1)), (1, (2,)), (2, (0, 2)), (2, (1,))]
    assert d.width == 2
    assert validate_decomposition(g, d).ok
    # arcs: {0,1}@1 meets both time-2 bags, {2}@1 meets {0,2}@2
    arc_bags = sorted(
        (tuple(sorted(d.bags[i])), tuple(sorted(d.bags[j]))) for i, j in d.arcs
    )
    assert arc_bags == [((0, 1), (0, 2)), ((0, 1), (1,)), ((2,), (0, 2))]


def test_worked_example_cycle_merge():
    g = TemporalGraph(2, [(0, 1, 1), (0, 1, 3)])
    d = compute_tim_decomposition(g)
    assert bags_of(d) == [(1, (0, 1)), (2, (0, 1)), (3, (0, 1))]
    assert d.width == 2
    assert validate_decomposition(g, d).ok


def test_edgeless_width_convention():
    assert tim_width(TemporalGraph(4, [])) == 1
    d = compute_tim_decomposition(TemporalGraph(4, []))
    assert d.node_count() == 0
    assert validate_decomposition(TemporalGraph(4, []), d).ok


def test_validator_catches_split_time_edge():
    g = TemporalGraph(2, [(0, 1, 1)])
    bad = TimDecomposition(
        2, 1, (frozenset({0}), frozenset({1})), (1, 1), ()
    )
    report = validate_decomposition(g, bad)
    assert not report.ok
    assert report.violation.condition == "condition2"


def test_validator_rejects_vertex_outside_graph():
    g = TemporalGraph(2, [(0, 1, 1)])
    for stray in (7, -3):
        d = parse_decomposition(f"node 0 time=1 bag=0,1,{stray}\n", 2, 1)
        report = validate_decomposition(g, d)
        assert not report.ok
        assert report.violation.condition == "bags"
        assert report.violation.witness == (0, stray)
        assert f"bag 0 holds vertex {stray}" in report.violation.message


def test_validator_rejects_decomposition_of_other_shape():
    g = TemporalGraph(2, [(0, 1, 1)])
    d = parse_decomposition("node 0 time=1 bag=0,1\n", 3, 4)
    report = validate_decomposition(g, d)
    assert not report.ok
    assert report.violation.condition == "bags"
    assert report.violation.witness == (3, 4)
    assert "n=3, Lambda=4" in report.violation.message
    assert "n=2, Lambda=1" in report.violation.message


@pytest.mark.parametrize(
    "decomp, condition, message",
    [
        ("node 0 time=1 bag=\n", "bags", "bag 0 is empty"),
        ("node 0 time=0 bag=0,1\n", "bags", "bag 0 has time 0 outside [1, 1]"),
        ("node 0 time=1 bag=0,1\nnode 1 time=1 bag=1\n", "condition1", "vertex 1 in bags 0 and 1 at time 1"),
        (TimDecomposition(2, 1, (frozenset({0, 1}),), (1,), (), ends=(1, 1)), "bags", "2 ends for 1 nodes"),
        (TimDecomposition(2, 1, (frozenset({0, 1}), frozenset({0})), (1,), ()), "bags",
         "1 times for 2 nodes"),
        ("node 0 time=1 bag=0\nnode 1 time=1 bag=1\nnode 2 time=1 bag=0\n", "bags",
         "3 bags exceed n*Lambda = 2"),
    ],
    ids=["empty-bag", "time-0", "vertex-twice", "ends", "times", "too-many-bags"],
)
def test_validator_refusals(decomp, condition, message):
    if isinstance(decomp, str):
        decomp = parse_decomposition(decomp, 2, 1)
    g = TemporalGraph(2, [(0, 1, 1)])
    report = validate_decomposition(g, decomp)
    assert not report.ok
    assert (report.violation.condition, report.violation.message) == (condition, message)
    # a structure handed the decomposition refuses it with the same message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TwoStepStructure(g, decomp)


def test_validator_catches_wrong_arcs():
    two = TemporalGraph(2, [(0, 1, 1), (0, 1, 2)])
    # nodes 0 {0, 1} and 1 {2} at time 1, 2 {0} and 3 {1, 2} at time 2
    path = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    for g, arcs, witness in [
        (two, (), ((0, 1),)),
        (path, ((0, 3), (1, 3)), ((0, 2),)),
        (path, ((0, 2), (0, 3), (1, 2), (1, 3)), ((1, 2),)),
    ]:
        d = compute_tim_decomposition(g)
        tampered = TimDecomposition(d.n, d.lifetime, d.bags, d.times, arcs)
        report = validate_decomposition(g, tampered)
        assert not report.ok
        assert report.violation.condition == "condition3"
        assert report.violation.witness == witness


def test_all_vertices_one_bag_per_time_is_valid():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
    bags = tuple(frozenset(range(3)) for _ in range(2))
    d = TimDecomposition(3, 2, bags, (1, 2), ((0, 1),))
    assert validate_decomposition(g, d).ok


@settings(max_examples=60, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_output_always_validates(g):
    d = compute_tim_decomposition(g)
    assert validate_decomposition(g, d).ok
    assert d.node_count() <= g.n * g.lifetime


@settings(max_examples=40, deadline=None)
@given(temporal_graphs(n_max=4, lam_max=3))
def test_minimality_against_enumerator(g):
    assert tim_width(g) == min_tim_width_exhaustive(g)


@settings(max_examples=25, deadline=None)
@given(temporal_graphs(n_max=3, lam_max=3))
def test_output_bags_contained_in_every_valid_decomposition(g):
    d = compute_tim_decomposition(g)
    for nodes in enumerate_tim_decompositions(g):
        for bag, t in zip(d.bags, d.times):
            assert any(
                t == t2 and bag <= set(b2) for t2, b2 in nodes
            ), f"bag {set(bag)}@{t} not inside decomposition {nodes}"


def test_idempotent_determinism(rng):
    for _ in range(30):
        g = random_graph(rng, n_max=7, lam_max=5)
        d1 = compute_tim_decomposition(g)
        d2 = compute_tim_decomposition(g)
        assert d1 == d2


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_per_vertex_nodes_form_directed_path(g):
    d = compute_tim_decomposition(g)
    arcset = set(d.arcs)
    for v in range(g.n):
        holders = sorted(
            (d.times[i], i) for i in range(len(d.bags)) if v in d.bags[i]
        )
        for (t1, i), (t2, j) in zip(holders, holders[1:]):
            assert t2 == t1 + 1
            assert (i, j) in arcset


@settings(max_examples=50, deadline=None)
@given(temporal_graphs(n_max=5, lam_max=4))
def test_vim_conversion_validates_with_width_omega(g):
    d = decomposition_from_vim(g)
    assert validate_decomposition(g, d).ok
    if g.lifetime:
        assert d.width == vim_sequence(g).width


def test_rooting_refuses_a_tree_without_a_time_lambda_node():
    d = TimDecomposition(2, 3, (frozenset({0, 1}),), (1,), ())
    with pytest.raises(ValueError, match="node 0 lies in a tree with no time-Lambda node"):
        root_and_augment(d)


def test_rooting_refuses_arcs_that_close_a_cycle():
    # the unmerged bag forest: {0, 1}, {2}; {0}, {1, 2}; {0, 1}, {2} at times 1-3
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 2), (0, 1, 3)])
    bags = tuple(frozenset(b) for b in ({0, 1}, {2}, {0}, {1, 2}, {0, 1}, {2}))
    arcs = ((0, 2), (0, 3), (1, 3), (2, 4), (3, 4), (3, 5))
    d = TimDecomposition(3, 3, bags, (1, 1, 2, 2, 3, 3), arcs)
    assert validate_decomposition(g, d).violation.message == "decomposition graph contains a cycle"
    with pytest.raises(ValueError, match=r"the arc between nodes \d+ and \d+ closes a cycle"):
        root_and_augment(d)


@pytest.mark.parametrize("arc", [(0, 5), (0, -1)], ids=["past-the-end", "negative"])
def test_rooting_refuses_an_arc_that_names_no_node(arc):
    # -1 would index the time-0 copy that rooting appends
    d = TimDecomposition(2, 1, (frozenset({0, 1}),), (1,), (arc,))
    with pytest.raises(ValueError, match=rf"^arc \({arc[0]}, {arc[1]}\) names none of the 1 nodes$"):
        root_and_augment(d)


@pytest.mark.parametrize(
    "d, message",
    [
        # raised a bare IndexError from the time-0 copy loop
        (TimDecomposition(2, 1, (frozenset({0, 1}), frozenset({0})), (1,), ()), "1 times for 2 nodes"),
        # rooted without a word
        (TimDecomposition(2, 1, (frozenset({0, 1}),), (1,), (), ends=(1, 1, 1)), "3 ends for 1 nodes"),
    ],
    ids=["short-times", "long-ends"],
)
def test_rooting_refuses_times_or_ends_not_as_long_as_bags(d, message):
    assert validate_decomposition(TemporalGraph(2, [(0, 1, 1)]), d).violation.message == message
    with pytest.raises(ValueError, match=rf"^{message}$"):
        root_and_augment(d)


def test_forest_on_disconnected_underlying():
    g = TemporalGraph(4, [(0, 1, 1), (2, 3, 2)])
    d = compute_tim_decomposition(g)
    assert validate_decomposition(g, d).ok
    rd = root_and_augment(d)
    assert len(rd.roots) == 2


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging when the body runs too long.

    The handler's error can land on an instruction with no line number,
    whose traceback entry pytest cannot print (a TypeError that ends the
    whole session), so the body's error is replaced by a fresh one raised
    here."""
    expired = f"still running after {seconds} s"

    def expire(signum, frame):
        raise TimeoutError(expired)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError as err:
        if err.args != (expired,):
            raise
        raise TimeoutError(expired) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SEARCH_GRAPH = TemporalGraph(
    5, [(0, 1, 1), (0, 1, 2), (3, 4, 2), (0, 2, 3), (0, 2, 5), (2, 3, 7), (0, 3, 8), (1, 4, 9)]
)


def test_search_revisits_no_partition():
    # same-time merges commute: without the seen set, the search reaches one
    # merged state along 3^7 orders
    with deadline(30):
        assert tim_width(SEARCH_GRAPH) == min_tim_width_exhaustive(SEARCH_GRAPH) == 4


# from the widths benchmark pool (seed 70)
WIDTHS_POOL_GRAPH = TemporalGraph(9, [
    (1, 3, 1), (2, 8, 1), (5, 6, 2), (7, 8, 2), (0, 6, 3), (1, 4, 3), (5, 6, 3), (7, 8, 3),
    (0, 5, 4), (0, 5, 5), (2, 8, 5), (1, 3, 7), (0, 8, 8), (3, 7, 8), (4, 5, 8),
])


def test_widths_pool_graph_decomposes_quickly():
    # a search that restarts after every forced merge and revisits
    # partitions runs for minutes on it, and the exhaustive oracle does not
    # finish
    g = WIDTHS_POOL_GRAPH
    with deadline(30):
        d = compute_tim_decomposition(g)
    assert validate_decomposition(g, d).ok
    assert d.width == 4
    vs = vim_sequence(g)
    le = connected_vim_width(g, "le", vs).width
    ge = connected_vim_width(g, "ge", vs).width
    assert d.width <= min(le, ge) and d.width <= bidirectional_cvim_width(g)
    assert le <= vs.width and ge <= vs.width


# CHANGES.md FOUND line 56: a path through all 20 vertices at shuffled
# times, plus two edges
SHUFFLED_PATH_GRAPH = TemporalGraph(20, [
    (1, 18, 1), (0, 14, 2), (0, 18, 8), (1, 8, 10), (14, 17, 12), (1, 13, 13), (5, 9, 27),
    (11, 18, 34), (5, 7, 41), (8, 16, 43), (4, 12, 46), (17, 19, 47), (10, 19, 54), (4, 7, 56),
    (2, 3, 57), (15, 16, 61), (3, 9, 62), (2, 11, 67), (6, 15, 72), (11, 13, 73), (6, 12, 80),
])


def test_shuffled_path_has_no_hamiltonian_path_on_vim():
    with deadline(30):
        answer, _ = solve_hamiltonian(SHUFFLED_PATH_GRAPH, "vim")
    assert answer is False


@pytest.mark.xfail(
    strict=True,
    raises=TimeoutError,
    reason="CHANGES.md FOUND line 56: the exact minimum-width search does not finish "
    "on this graph; ROADMAP items 1 and 5 make it return, and flip this test",
)
def test_shuffled_path_decomposes_quickly():
    with deadline(1):
        tim_width(SHUFFLED_PATH_GRAPH)


def test_widths_pool_graph_search_tree_is_pinned(monkeypatch):
    # the forced merges only decide the state each call starts from, so the
    # branching search makes the same calls however they are found
    calls = 0
    search = decomposition._minimise

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(decomposition, "_minimise", counted)
    assert compute_tim_decomposition(WIDTHS_POOL_GRAPH).width == 4
    assert calls == 2275


def restarting_forced_merges(state):
    """The forced merges as a restart loop over the whole forest: each pass
    rebuilds its union-find over every node, applies the merges of the first
    direction sweep that finds any, and the loop stops after a pass finds
    none. The core becomes the whole forest, so that find_cycle, which reads
    it, does not depend on the core the search keeps either."""
    state.core = set(state.adj)
    times, adj = state.times, state.adj
    while True:
        by_time = {}
        for i, t in times.items():
            by_time.setdefault(t, []).append(i)
        for direction in (1, -1):
            uf = {}

            def find(x):
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = uf[x]
                return x

            merged = False
            prev_level = ()
            for t in sorted(by_time, reverse=direction == -1):
                back = t - direction
                for i in prev_level:
                    for nb in adj[i]:
                        if times[nb] == back - direction:
                            ra, rb = find(i), find(nb)
                            if ra != rb:
                                uf[ra] = rb
                level = by_time[t]
                for w in level:
                    side = [nb for nb in adj[w] if times[nb] == back]
                    if len(side) < 2:
                        continue
                    groups = {}
                    for nb in side:
                        groups.setdefault(find(nb), []).append(nb)
                    for members in groups.values():
                        if len(members) >= 2:
                            members.sort()
                            for other in members[1:]:
                                state.merge(members[0], other)
                            merged = True
                for i in level:
                    uf[i] = i
                prev_level = level
            if merged:
                break
        else:
            return


def widths_pool_shaped_graphs():
    """420 graphs in twelve rounds of the widths benchmark's pool shape."""
    rng = random.Random(1818)
    for _ in range(12):
        for n in range(1, 13):
            for _ in range(2):
                lam = rng.randint(1, 10)
                p = rng.choice((0.1, 0.25, 0.4, 0.6))
                yield gen_random(n, lam, p, max_times_per_edge=2, seed=rng.randrange(1 << 30))
        for n in range(2, 13):
            yield gen_ordered_tree(n, seed=rng.randrange(1 << 30), max_times_per_edge=rng.randint(1, 3))


def test_forced_merges_match_restarting_reference(monkeypatch):
    # every closure the search makes, on all graphs but the slow seed-70
    # one, must equal the reference's on a copy of its state, and both
    # decomposition outputs must equal those of a search on the reference
    forced = decomposition._forced_merges

    def checked(state):
        ref = state.clone()
        restarting_forced_merges(ref)
        forced(state)
        assert (state.bags, state.adj) == (ref.bags, ref.adj)

    def outputs(graphs):
        return [(compute_tim_decomposition(g), interval_decomposition(g)) for g in graphs]

    graphs = [*widths_pool_shaped_graphs(), SEARCH_GRAPH, gen_hard_ham_path(20)]
    with deadline(30):
        slow = outputs([WIDTHS_POOL_GRAPH])
        monkeypatch.setattr(decomposition, "_forced_merges", checked)
        got = outputs(graphs) + slow
        monkeypatch.setattr(decomposition, "_forced_merges", restarting_forced_merges)
        want = outputs([*graphs, WIDTHS_POOL_GRAPH])
    for g, a, b in zip([*graphs, WIDTHS_POOL_GRAPH], got, want):
        assert a == b, g


def expanded_reference(g):
    """compute_tim_decomposition through the mutable state: the search's
    forest with every interval node expanded in place, then renumbered by
    id."""
    state = decomposition._tim_forest(g)
    for i in list(state.ends):
        state.expand(i, g.n)
    return decomposition._as_decomposition(g, state)


def test_written_decomposition_matches_expanded_state():
    rng = random.Random(5151)
    # sparse and long-lived, so most idle runs span many timesteps
    graphs = [random_graph(rng, n_max=9, lam_max=30, p=0.2, max_times=2) for _ in range(150)]
    graphs += list(widths_pool_shaped_graphs())
    core_runs = 0
    with deadline(30):
        for g in [*graphs, SEARCH_GRAPH, gen_hard_ham_path(20), WIDTHS_POOL_GRAPH]:
            assert compute_tim_decomposition(g) == expanded_reference(g), g
            forest = decomposition._interval_forest(g)
            if decomposition._two_core(forest.adj) & forest.ends.keys():
                core_runs += 1
    # graphs where the search itself expanded interval nodes of the core
    assert core_runs > 100


def golden_graphs():
    rng = random.Random(8080)
    for _ in range(200):
        n = rng.randint(1, 10)
        lam = rng.randint(1, 8)
        p = rng.choice((0.1, 0.25, 0.4, 0.6))
        yield gen_random(n, lam, p, max_times_per_edge=2, seed=rng.randrange(1 << 30))
    # sparse and long-lived, where cycles more often survive the forced merges
    for _ in range(50):
        n = rng.randint(4, 9)
        lam = rng.randint(6, 10)
        p = rng.choice((0.25, 0.4))
        yield gen_random(n, lam, p, max_times_per_edge=2, seed=rng.randrange(1 << 30))
    for _ in range(50):
        n = rng.randint(2, 12)
        yield gen_ordered_tree(n, seed=rng.randrange(1 << 30), max_times_per_edge=rng.randint(1, 3))
    yield gen_hard_ham_path(20)
    yield SEARCH_GRAPH


def golden_digest():
    h = hashlib.sha256()
    for g in golden_graphs():
        h.update(emit_decomposition(compute_tim_decomposition(g)).encode())
        h.update(b"--\n")
        h.update(emit_decomposition(decomposition_from_vim(g)).encode())
        h.update(b"==\n")
    return h.hexdigest()


def two_step_digest():
    """The rooted times, 2-step pair sets and 2-step width that
    `timwidth decompose --two-step` prints, over golden_graphs()."""
    h = hashlib.sha256()
    for g in golden_graphs():
        ts = TwoStepStructure(g, compute_tim_decomposition(g))
        for t, pairs in zip(ts.rooted.times, ts.pairs):
            h.update(f"{t} {sorted(pairs, key=lambda p: (p[1], p[0]))}\n".encode())
        h.update(f"width {ts.width}\n==\n".encode())
    return h.hexdigest()


GOLDEN_DIGEST = "f1ade38f4fd9d75d5dfa3bdb6652dccf36f6e0ab054fcc1f11c632679c95743b"


def test_decomposition_output_is_pinned():
    """Both builders' output on 302 graphs, pinned by one digest.

    Refactors of the decomposition must leave this digest unchanged. To
    regenerate it, run
    `PYTHONPATH=src python -c "from tests.test_decomposition import golden_digest; print(golden_digest())"`
    from the repository root and paste the value into GOLDEN_DIGEST. A change
    that moves the digest must say why in CHANGES.md.
    """
    with deadline(60):
        assert golden_digest() == GOLDEN_DIGEST


TWO_STEP_DIGEST = "4159569bfe61a52ceed1c76b9176e247bcea80d250788b3796fba23411c4c67a"


def test_two_step_output_is_pinned():
    """The rooted 2-step bags of the same graphs, pinned by one digest.

    Refactors of rooting or of the 2-step bags must leave this digest
    unchanged. To regenerate it, run
    `PYTHONPATH=src python -c "from tests.test_decomposition import two_step_digest; print(two_step_digest())"`
    from the repository root and paste the value into TWO_STEP_DIGEST. A
    change that moves the digest must say why in CHANGES.md.
    """
    with deadline(60):
        assert two_step_digest() == TWO_STEP_DIGEST


def test_interval_form_validates():
    shortened = 0
    for g in [*golden_graphs(), gen_hard_ham_path(35), gen_hard_ham_path(50)]:
        d = interval_decomposition(g)
        assert validate_decomposition(g, d).ok, g
        assert d.node_count() == len(compute_tim_decomposition(g).bags)
        runs = [i for i, (t, end) in enumerate(zip(d.times, d.ends)) if end > t]
        if runs:
            i = runs[len(runs) // 2]
            ends = d.ends[:i] + (d.ends[i] - 1,) + d.ends[i + 1 :]
            assert not validate_decomposition(g, replace(d, ends=ends)).ok
            shortened += 1
    assert shortened > 50


def test_validator_rejects_ends_outside_the_lifetime():
    g = TemporalGraph(3, [(0, 1, 1), (1, 2, 4)])
    d = interval_decomposition(g)
    assert d.times == (1, 1, 2, 2, 4) and d.ends == (1, 3, 4, 3, 4)
    assert validate_decomposition(g, d).ok
    for i, end in ((1, 0), (2, 5), (3, 1)):
        ends = d.ends[:i] + (end,) + d.ends[i + 1 :]
        report = validate_decomposition(g, replace(d, ends=ends))
        assert not report.ok
        assert report.violation.condition == "bags"
        assert report.violation.witness == (i,)


@pytest.mark.parametrize(
    "g",
    [
        # two underlying components: one tree each
        TemporalGraph(4, [(0, 1, 1), (2, 3, 2)]),
        TemporalGraph(3, [(0, 1, 1)]),
    ],
)
def test_root_of_a_forest_is_refused(g):
    rd = root_and_augment(compute_tim_decomposition(g))
    assert len(rd.roots) > 1
    with pytest.raises(ValueError, match=r"^decomposition is a forest; use \.roots$"):
        rd.root
