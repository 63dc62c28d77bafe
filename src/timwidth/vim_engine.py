"""Generic DP engine over the VIM sequence for locally temporally uniform problems."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import snapshot
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
    """A problem definition the VIM engine can run.

    Subclasses fix the label alphabet (with a distinguished default label),
    the counter arity, the Tr / Ac routines, and the initial states, which
    depend on the instance alone (the engine restricts them to F_0). Tr is
    one hook: transition maps a state and the next step's labels to the
    counters of the state that follows, or None when Tr rejects the step.
    """

    labels: tuple = ()
    default_label: str = "U"
    counter_arity: int = 0

    def counter_ranges(self, instance):
        """Inclusive (lo, hi) per counter that Tr can return; the engine does
        not read it, table-size bounds and enumerate_bag_states do."""
        raise NotImplementedError

    def counter_bound(self, instance):
        return max(
            (max(abs(lo), abs(hi)) for lo, hi in self.counter_ranges(instance)),
            default=0,
        )

    def transition(self, prev: KXState, labels, snap):
        """Counters after prev with labels (its non-default labels), or None."""
        raise NotImplementedError

    def accept(self, state: KXState, instance) -> bool:
        raise NotImplementedError

    def initial_states(self, instance):
        raise NotImplementedError


def enumerate_bag_states(bag, plugin, instance):
    """Every state on the given bag: all labellings times all counter vectors.

    Deterministic order, no duplicates.
    """
    verts = sorted(bag)
    ranges = [range(lo, hi + 1) for lo, hi in plugin.counter_ranges(instance)]
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
    plugin: VimProblemPlugin, instance, state_cap=DEFAULT_STATE_CAP, record=False
) -> VimSolveResult:
    """Run the chronological DP of the locally-temporally-uniform meta-algorithm.

    Candidate states at time t agree with some kept predecessor outside A_t,
    which is exactly the set of states any transition can reach, so only the
    A_t labellings are enumerated; Tr gives each one's counters or rejects it.
    The guard counts those candidates before a timestep tries them.
    """
    g = instance.graph
    vs = vim_sequence(g)
    lam = g.lifetime
    default = plugin.default_label

    states = set()
    for s in plugin.initial_states(instance):
        states.add(s.restrict(vs.bags[0]))
    table_sizes = [len(states)]
    tables = [frozenset(states)] if record else None

    for t in range(1, lam + 1):
        ft, at = vs.bags[t], vs.actives[t]
        estimate = len(states) * len(plugin.labels) ** len(at)
        if estimate > state_cap:
            raise ResourceLimitError(f"timestep {t}", estimate, state_cap)
        snap = snapshot(g, t)
        active = sorted(at)
        new_states = set()
        for prev in states:
            r = prev.restrict(ft)
            base = r.label_dict()
            for assignment in product(plugin.labels, repeat=len(active)):
                label_map = dict(base)
                for v, l in zip(active, assignment):
                    if l == default:
                        label_map.pop(v, None)
                    else:
                        label_map[v] = l
                counters = plugin.transition(r, label_map, snap)
                if counters is not None:
                    new_states.add(KXState.make(label_map, counters, default))
        states = new_states
        table_sizes.append(len(states))
        if record:
            tables.append(frozenset(states))
        if not states:
            break

    answer = any(plugin.accept(s, instance) for s in states)
    return VimSolveResult(answer, table_sizes, vs.width, lam, g.n, tables)
