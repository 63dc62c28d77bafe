"""What the plugin contracts state once: vector lengths come from v_upper and
counter_ranges, a plugin is built for its instance and no hook takes it, and
README's hook lists match the base classes."""

import inspect
import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

from timwidth import tim_engine, vim_engine
from timwidth.core import TemporalGraph, snapshot
from timwidth.generators import gen_random
from timwidth.problems import FirefighterInstance, HamiltonianInstance, normalize_firefighter
from timwidth.problems.firefighter import FirefighterTimPlugin, FirefighterVimPlugin
from timwidth.problems.hamiltonian import HamiltonianTimPlugin, HamiltonianVimPlugin
from timwidth.problems.matching import MatchingTimPlugin
from timwidth.problems.reachability import TredTimPlugin
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
            for plugin in plugin_cases(g, comp):
                name = type(plugin).__name__
                k = len(plugin.v_upper)
                cap = plugin.total_cap
                assert cap is None or len(cap) == k, name
                labels = plugin.labels
                small = len(labels) ** len(comp.vertices) <= max_product
                for role in ROLES:
                    vectors = [vec for _, vec in plugin.assignments(comp, role)]
                    if small:
                        for labelling in product(labels, repeat=len(comp.vertices)):
                            vec = plugin.check(labelling, comp, role)
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
        for cls, inst in ((HamiltonianVimPlugin, HamiltonianInstance(g)), (FirefighterVimPlugin, ff_inst)):
            plugin = cls(inst)
            name = cls.__name__
            k = len(plugin.counter_ranges)
            assert all(len(s.counters) == k for s in plugin.initial_states), name
            h = inst.graph
            vs = vim_sequence(h)
            tables = solve_locally_uniform(plugin, h, record=True).tables
            for t, table in enumerate(tables[: h.lifetime], start=1):
                snap = snapshot(h, t)
                for kept in table:
                    prev = kept.restrict(vs.bags[t])
                    for labels, counters in plugin.successors(prev, snap):
                        assert len(counters) == k, (name, t, prev)
                        assert len(plugin.transition(prev, labels, snap)) == k, (name, t, prev)
                        steps[name] += 1
    assert len(steps) == 2 and min(steps.values()) > 200


PLUGINS = (
    (TimProblemPlugin, (HamiltonianTimPlugin, FirefighterTimPlugin, MatchingTimPlugin, TredTimPlugin)),
    (VimProblemPlugin, (HamiltonianVimPlugin, FirefighterVimPlugin)),
)


def public_methods(cls):
    """Name -> function of each public method cls defines itself."""
    return {name: value for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_plugins_are_built_for_their_instance():
    # the constructor takes the instance; every public method is a base
    # hook, takes no instance and keeps its base hook's parameters
    for base, plugins in PLUGINS:
        hooks = public_methods(base)
        assert hooks and all("instance" not in parameters(fn) for fn in hooks.values()), base.__name__
        for cls in plugins:
            assert issubclass(cls, base)
            assert parameters(cls.__init__) == ["self", "instance"], cls.__name__
            for name, fn in public_methods(cls).items():
                assert name in hooks, (cls.__name__, name)
                assert parameters(fn) == parameters(hooks[name]), (cls.__name__, name)
    # the engines take the graph, and what they pass on takes no instance either
    for fn in (
        tim_engine.solve_component_exchangeable,
        tim_engine.realisable_profiles,
        tim_engine.fold_idle_run,
        vim_engine.solve_locally_uniform,
        vim_engine.enumerate_bag_states,
    ):
        assert "instance" not in parameters(fn), fn.__name__
    assert parameters(tim_engine.solve_component_exchangeable)[:2] == ["plugin", "g"]
    assert parameters(vim_engine.solve_locally_uniform)[:2] == ["plugin", "g"]


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
