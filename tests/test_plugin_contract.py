"""What the plugin contracts state once: vector lengths come from v_upper and
counter_ranges, and README's hook lists match the base classes."""

import inspect
import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

from timwidth.core import TemporalGraph, snapshot
from timwidth.generators import gen_random
from timwidth.problems import FirefighterInstance, HamiltonianInstance, normalize_firefighter
from timwidth.problems.firefighter import ff_vim_plugin
from timwidth.problems.hamiltonian import ham_vim_plugin
from timwidth.tim_engine import TimProblemPlugin
from timwidth.vim_engine import VimProblemPlugin, solve_locally_uniform
from timwidth.widths import vim_sequence

from .conftest import random_graph
from .test_generated_assignments import ROLES, plugin_cases, snapshot_components

README = Path(__file__).resolve().parent.parent / "README.md"


def test_tim_vectors_have_v_upper_length():
    # check runs on every labelling below this label product
    max_product = 1_024
    rng = random.Random(2525)
    seen = Counter()
    graphs = [
        gen_random(rng.randint(1, 6), rng.randint(1, 3), 0.45, max_times_per_edge=2, seed=rng.randrange(1 << 30))
        for _ in range(12)
    ]
    # an edgeless graph has lifetime 0 and one time-0 snapshot of singletons
    graphs.append(TemporalGraph(3, []))
    for g in graphs:
        for comp in snapshot_components(g):
            for plugin, inst in plugin_cases(g, comp):
                name = type(plugin).__name__
                k = len(plugin.v_upper(inst))
                cap = plugin.total_cap(inst)
                assert cap is None or len(cap) == k, name
                labels = plugin.label_set(inst)
                small = len(labels) ** len(comp.vertices) <= max_product
                for role in ROLES:
                    vectors = [vec for _, vec in plugin.assignments(comp, role, inst)]
                    if small:
                        for labelling in product(labels, repeat=len(comp.vertices)):
                            vec = plugin.check(labelling, comp, role, inst)
                            if vec is not None:
                                vectors.append(vec)
                    assert all(len(vec) == k for vec in vectors), (name, role, comp)
                    seen[name, role] += len(vectors)
    assert len(seen) == 4 * len(ROLES)
    assert all(seen.values())


def test_vim_counters_have_counter_ranges_length():
    rng = random.Random(2526)
    steps = Counter()
    for _ in range(40):
        g = random_graph(rng, n_max=5, lam_max=4, n_min=2)
        if not g.time_edges:
            continue
        root = rng.choice(sorted({v for u, w, _ in g.time_edges for v in (u, w)}))
        ff_inst = normalize_firefighter(FirefighterInstance(g, root, rng.randint(0, g.n)))
        for plugin, inst in ((ham_vim_plugin(), HamiltonianInstance(g)), (ff_vim_plugin(), ff_inst)):
            name = type(plugin).__name__
            k = len(plugin.counter_ranges(inst))
            assert all(len(s.counters) == k for s in plugin.initial_states(inst)), name
            h = inst.graph
            vs = vim_sequence(h)
            tables = solve_locally_uniform(plugin, inst, record=True).tables
            for t, table in enumerate(tables[: h.lifetime], start=1):
                snap = snapshot(h, t)
                for kept in table:
                    prev = kept.restrict(vs.bags[t])
                    for labels, counters in plugin.successors(prev, snap):
                        assert len(counters) == k, (name, t, prev)
                        assert len(plugin.transition(prev, labels, snap)) == k, (name, t, prev)
                        steps[name] += 1
    assert len(steps) == 2 and min(steps.values()) > 200


HOOK = re.compile(r"- `(\w+)(?:\(([^)]*)\))?`")


def readme_hooks(engine):
    """(name, parameters or None for an attribute) for each bullet of
    README's "Writing a <engine> plugin" list."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"Writing a {engine} plugin"):]
    start = section.index("\n- ") + 1
    out = []
    for line in section[start:section.index("\n\n", start)].splitlines():
        m = HOOK.match(line)
        if m:
            name, params = m.groups()
            out.append((name, None if params is None else [p.strip() for p in params.split(",")]))
    return out


def test_readme_hook_lists_match_the_base_classes():
    for engine, base in (("TIM", TimProblemPlugin), ("VIM", VimProblemPlugin)):
        hooks = readme_hooks(engine)
        methods = {name for name, value in vars(base).items() if callable(value) and not name.startswith("_")}
        assert {name for name, params in hooks if params is not None} == methods, engine
        for name, params in hooks:
            assert name in vars(base), (engine, name)
            if params is None:
                assert not callable(vars(base)[name]), (engine, name)
            else:
                declared = list(inspect.signature(getattr(base, name)).parameters)[1:]
                assert params == declared, (engine, name)
