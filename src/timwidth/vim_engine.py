"""Generic DP engine over the VIM sequence for locally temporally uniform problems."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import TemporalGraph, snapshot
from .widths import vim_sequence


class ResourceLimitError(RuntimeError):
    """The engine's state space outgrew the configured cap."""

    def __init__(self, where, estimate, cap):
        super().__init__(
            f"state space at {where} would reach {estimate} entries (cap {cap})"
        )
        self.where = where
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class KXState:
    """A vertex labelling plus a fixed-arity counter vector.

    Only non-default labels are stored; every unlisted vertex implicitly
    carries the plugin's default label U.
    """

    labels: tuple  # sorted ((vertex, label), ...) with label != default
    counters: tuple
    default: str

    @staticmethod
    def make(label_map, counters, default):
        items = tuple(
            sorted((v, l) for v, l in label_map.items() if l != default)
        )
        return KXState(items, tuple(counters), default)

    def label(self, v):
        for x, l in self.labels:
            if x == v:
                return l
        return self.default

    def label_dict(self):
        return dict(self.labels)

    def labelled(self, label):
        return frozenset(v for v, l in self.labels if l == label)

    def restrict(self, vertex_set):
        return KXState(
            tuple((v, l) for v, l in self.labels if v in vertex_set),
            self.counters,
            self.default,
        )


class VimProblemPlugin:
    """A problem definition the VIM engine can run, built for one instance.

    Attributes: the label alphabet labels, with a distinguished
    default_label; counter_ranges, the inclusive (lo, hi) per counter that
    Tr can return, which the engine does not read but table-size bounds and
    enumerate_bag_states do; and initial_states, the time-0 states, which
    the engine restricts to F_0. A subclass's constructor takes the instance
    and sets what depends on it, so the hooks take only what changes per
    call. Tr is one hook: transition maps a state and the next step's labels
    to the counters of the state that follows, one per counter range, or
    None when Tr rejects the step. snap is snapshot(g, t): the edges at t
    over their endpoints, the sorted A_t. The engine asks successors for the
    steps Tr admits; a plugin that can generate them overrides it, and
    step_bound with it. accept is Ac.
    """

    labels: tuple = ()
    default_label: str = "U"
    counter_ranges: tuple = ()
    # None until a plugin sets it, so a plugin that forgets fails loudly
    initial_states: tuple = None

    @property
    def counter_bound(self):
        """The largest absolute value counter_ranges allows."""
        return max((max(abs(lo), abs(hi)) for lo, hi in self.counter_ranges), default=0)

    def transition(self, prev: KXState, labels, snap):
        """Counters after prev with labels (its non-default labels), or None."""
        raise NotImplementedError

    def successors(self, prev: KXState, snap):
        """Yield (label map, counters) once for each step Tr admits from prev.

        prev is already restricted to F_t; a step relabels the active
        vertices, snap.vertices, only. This default tries every labelling of
        them and keeps what transition admits, so transition stays the
        specification a faster override must match.
        """
        base = prev.label_dict()
        default = self.default_label
        active = snap.vertices
        for assignment in product(self.labels, repeat=len(active)):
            label_map = dict(base)
            for v, l in zip(active, assignment):
                if l == default:
                    label_map.pop(v, None)
                else:
                    label_map[v] = l
            counters = self.transition(prev, label_map, snap)
            if counters is not None:
                yield label_map, counters

    def step_bound(self, snap):
        """An upper bound on what successors yields from one state."""
        return len(self.labels) ** len(snap.vertices)

    def accept(self, state: KXState) -> bool:
        raise NotImplementedError


def enumerate_bag_states(bag, plugin):
    """Every state on the given bag: all labellings times all counter vectors.

    Deterministic order, no duplicates.
    """
    verts = sorted(bag)
    ranges = [range(lo, hi + 1) for lo, hi in plugin.counter_ranges]
    out = []
    for labelling in product(plugin.labels, repeat=len(verts)):
        label_map = dict(zip(verts, labelling))
        for counters in product(*ranges):
            out.append(KXState.make(label_map, counters, plugin.default_label))
    return out


@dataclass
class VimSolveResult:
    answer: bool
    table_sizes: list
    omega: int
    lifetime: int
    n: int
    tables: list | None = None  # per-timestep kept states when recorded


DEFAULT_STATE_CAP = 2_000_000


def solve_locally_uniform(
    plugin: VimProblemPlugin, g: TemporalGraph, state_cap=DEFAULT_STATE_CAP, record=False
) -> VimSolveResult:
    """Run the chronological DP of the locally-temporally-uniform
    meta-algorithm on g, the graph of the instance plugin was built for.

    Each kept state's successors come from the plugin, which yields exactly
    the steps Tr admits. The guard bounds a timestep's work by the plugin's
    step_bound per kept state before the timestep runs.
    """
    vs = vim_sequence(g)
    lam = g.lifetime
    default = plugin.default_label

    states = set()
    for s in plugin.initial_states:
        states.add(s.restrict(vs.bags[0]))
    table_sizes = [len(states)]
    tables = [frozenset(states)] if record else None

    for t in range(1, lam + 1):
        ft = vs.bags[t]
        snap = snapshot(g, t)
        estimate = len(states) * plugin.step_bound(snap)
        if estimate > state_cap:
            raise ResourceLimitError(f"timestep {t}", estimate, state_cap)
        new_states = set()
        for prev in states:
            for label_map, counters in plugin.successors(prev.restrict(ft), snap):
                new_states.add(KXState.make(label_map, counters, default))
        states = new_states
        table_sizes.append(len(states))
        if record:
            tables.append(frozenset(states))
        if not states:
            break

    answer = any(plugin.accept(s) for s in states)
    return VimSolveResult(answer, table_sizes, vs.width, lam, g.n, tables)
