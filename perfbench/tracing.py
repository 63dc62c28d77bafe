"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing under src/ is edited. While a Tracer is installed, the public
functions that one timwidth module calls in another are replaced, in the
calling module's namespace, by wrappers that record a span; the plugin object
each engine receives is replaced by a subclass instance that counts the
engine's calls into it. uninstall() puts every original back.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from timwidth import decomposition, generators, io, tim_engine, vim_engine, widths
from timwidth.problems import firefighter, hamiltonian, matching, reachability

# (module, attribute, span name): the call sites the traced run times
SPAN_SITES = (
    (generators, "gen_random", "generators.gen"),
    (generators, "gen_ordered_tree", "generators.gen"),
    (generators, "gen_hard_ham_path", "generators.gen"),
    (io, "emit_graph_file", "io.emit"),
    (io, "parse_graph_file", "io.parse"),
    (widths, "vim_sequence", "widths.vim_sequence"),
    (vim_engine, "vim_sequence", "widths.vim_sequence"),
    (widths, "connected_vim_width", "widths.connected_vim_width"),
    (widths, "bidirectional_cvim_width", "widths.bidirectional_cvim_width"),
    (decomposition, "compute_tim_decomposition", "decomposition.compute_tim_decomposition"),
    (tim_engine, "compute_tim_decomposition", "decomposition.compute_tim_decomposition"),
    (tim_engine, "root_and_augment", "decomposition.root_and_augment"),
    (tim_engine, "build_two_step", "decomposition.build_two_step"),
    (tim_engine, "TwoStepStructure", "tim_engine.structure"),
)
VIM_SITES = (hamiltonian, firefighter)
TIM_SITES = (hamiltonian, firefighter, matching, reachability)

# per-layer metrics: span-name self times, then counts and ratios
SELF_TIME_METRICS = {
    "generators.gen_s": "generators.gen",
    "io.emit_s": "io.emit",
    "io.parse_s": "io.parse",
    "widths.vim_sequence_s": "widths.vim_sequence",
    "widths.connected_vim_width_s": "widths.connected_vim_width",
    "widths.bidirectional_cvim_width_s": "widths.bidirectional_cvim_width",
    "decomposition.compute_tim_decomposition_s": "decomposition.compute_tim_decomposition",
    "decomposition.root_and_augment_s": "decomposition.root_and_augment",
    "decomposition.build_two_step_s": "decomposition.build_two_step",
    "tim_engine.structure_s": "tim_engine.structure",
    "tim_engine.dp_s": "tim_engine.dp",
    "vim_engine.solve_s": "vim_engine.solve",
}
SOLVE_PAIRS = (
    ("ham", "vim"), ("ff", "vim"), ("ham", "tim"),
    ("ff", "tim"), ("matching", "tim"), ("tred", "tim"),
)
COUNT_METRICS = (
    "decomposition.nodes",
    "decomposition.idle_singleton_bags",
    "tim_engine.bags",
    "tim_engine.candidates",
    "tim_engine.tr_calls",
    "tim_engine.check_calls",
    "tim_engine.profiles_total",
    "tim_engine.profiles_peak",
    "vim_engine.runs",
    "vim_engine.transition_calls",
    "vim_engine.states_kept",
    "vim_engine.states_peak",
    "vim_engine.refused",
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, instance id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.counts = Counter()
        self._saved = []
        self._classes = {}

    # -- spans -------------------------------------------------------------
    def open(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.instance]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def open_instance(self, name):
        """The root span of the next instance; later spans carry its id."""
        self.instance = 0 if self.instance is None else self.instance + 1
        return self.open(name)

    def close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(args, out)  # counting stays outside the span
            return out

        return traced

    # -- installation ------------------------------------------------------
    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        after = {"decomposition.compute_tim_decomposition": self._count_decomposition}
        for module, attr, name in SPAN_SITES:
            self._patch(module, attr, self.wrap(name, getattr(module, attr), after.get(name)))
        for module in VIM_SITES:
            self._patch(module, "solve_locally_uniform", self._vim_engine(module.solve_locally_uniform))
        for module in TIM_SITES:
            self._patch(
                module,
                "solve_component_exchangeable",
                self._tim_engine(module.solve_component_exchangeable),
            )

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- counters ----------------------------------------------------------
    def _count_decomposition(self, args, d):
        g = args[0]
        self.counts["decomposition.nodes"] += d.node_count()
        idle = 0
        for bag, t in zip(d.bags, d.times):
            if len(bag) == 1:
                (v,) = bag
                if all(v != a and v != b for a, b in g.edges_at(t)):
                    idle += 1
        self.counts["decomposition.idle_singleton_bags"] += idle

    def _counting(self, plugin, make):
        """The same plugin, as an instance of a counting subclass."""
        base = type(plugin)
        if base not in self._classes:
            self._classes[base] = make(base, self.counts)
        cls = self._classes[base]
        wrapped = cls.__new__(cls)
        wrapped.__dict__.update(plugin.__dict__)
        return wrapped

    def _peak(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def _vim_engine(self, solve):
        counts = self.counts
        traced = self.wrap("vim_engine.solve", solve)

        def run(plugin, instance, *args, **kwargs):
            counts["vim_engine.runs"] += 1
            try:
                res = traced(self._counting(plugin, counting_vim_class), instance, *args, **kwargs)
            except vim_engine.ResourceLimitError:
                counts["vim_engine.refused"] += 1
                raise
            self._peak("vim_engine.states_peak", max(res.table_sizes, default=0))
            return res

        return run

    def _tim_engine(self, solve):
        counts = self.counts
        traced = self.wrap("tim_engine.dp", solve)

        def run(plugin, instance, *args, **kwargs):
            res = traced(self._counting(plugin, counting_tim_class), instance, *args, **kwargs)
            counts["tim_engine.bags"] += res.bag_count
            counts["tim_engine.profiles_total"] += sum(res.profile_counts.values())
            self._peak("tim_engine.profiles_peak", max(res.profile_counts.values(), default=0))
            return res

        return run

    # -- reporting ---------------------------------------------------------
    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def inclusive_times(self):
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def layer_metrics(self):
        selfs = self.self_times()
        incl = self.inclusive_times()
        c = self.counts
        m = {key: selfs[name] for key, name in SELF_TIME_METRICS.items()}
        for problem, engine in SOLVE_PAIRS:
            m[f"problems.{problem}.{engine}.solve_s"] = incl[f"problems.{problem}.{engine}.solve"]
        for key in COUNT_METRICS:
            m[key] = c[key]
        m["tim_engine.kept_ratio"] = _ratio(c["tim_engine.profiles_total"], c["tim_engine.candidates"])
        m["vim_engine.kept_ratio"] = _ratio(c["vim_engine.states_kept"], c["vim_engine.transition_calls"])
        return m

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")


def per_layer_units():
    """Every per-layer metric a traced run prints, with its unit."""
    units = {key: "s" for key in SELF_TIME_METRICS}
    for problem, engine in SOLVE_PAIRS:
        units[f"problems.{problem}.{engine}.solve_s"] = "s"
    units.update({key: "count" for key in COUNT_METRICS})
    units["tim_engine.kept_ratio"] = "1"
    units["vim_engine.kept_ratio"] = "1"
    units["oracles.verify_s"] = "s"
    units["trace.untraced_s"] = "s"
    units["trace.traced_s"] = "s"
    units["trace.overhead_frac"] = "1"
    units["trace.instances"] = "count"
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def counting_vim_class(base, counts):
    """A subclass of a VIM plugin class that counts Tr calls and kept states."""

    class Counting(base):
        def transition(self, prev, new, snap):
            counts["vim_engine.transition_calls"] += 1
            ok = super().transition(prev, new, snap)
            if ok:
                counts["vim_engine.states_kept"] += 1
            return ok

    return Counting


def counting_tim_class(base, counts):
    """A subclass of a TIM plugin class that counts the engine's candidate
    generation, Tr calls and St/Val/Fin checks (also those that assignments
    makes through self)."""

    class Counting(base):
        def tr(self, *args, **kwargs):
            counts["tim_engine.tr_calls"] += 1
            return super().tr(*args, **kwargs)

        def check(self, *args, **kwargs):
            counts["tim_engine.check_calls"] += 1
            return super().check(*args, **kwargs)

        def assignments(self, *args, **kwargs):
            out = super().assignments(*args, **kwargs)
            counts["tim_engine.candidates"] += len(out)
            return out

        def successors(self, *args, **kwargs):
            out = super().successors(*args, **kwargs)
            if out is not None:
                counts["tim_engine.candidates"] += len(out)
            return out

    return Counting
