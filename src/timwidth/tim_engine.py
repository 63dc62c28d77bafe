"""Realisable-profile DP over rooted 2-step TIM decompositions.

The engine answers component-exchangeable temporally uniform problems:
plugins supply St / Val / Fin (one check hook that returns a labelling's
counter vector) and Tr on timed components, plus a componentwise upper
bound on the summed counter vectors. Realisability is computed bottom-up;
per bag only the assignments of its own-time components and a small
boundary labelling are visible to the parent, which keeps the per-bag
tables at partial-profile size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import ComponentGraph, TemporalGraph, component_graphs
from .decomposition import (
    build_two_step,
    compute_tim_decomposition,
    root_and_augment,
)
from .vim_engine import ResourceLimitError


class TimProblemPlugin:
    """Problem bundle for the component-exchangeable engine.

    Labellings are tuples aligned with a component's sorted vertex tuple.
    check and tr are authoritative. check is St, Val or Fin by role and
    returns the counter vector a labelling fixes, or None when the role
    rejects it; successors generates the labellings worth trying, and the
    engine re-checks every one it keeps with tr and check. On a component
    of one vertex and no edges, check (roles val and fin) and tr must not
    depend on which vertex it holds: inside runs of idle bags the engine
    asks them once per timestep for all such components.
    """

    labels: tuple = ()

    def label_set(self, instance):
        return self.labels

    def arity(self, instance) -> int:
        raise NotImplementedError

    def counter_bound(self, instance) -> int:
        """Max absolute value of any per-component vector entry."""
        raise NotImplementedError

    def v_upper(self, instance) -> tuple:
        raise NotImplementedError

    def check(self, labelling, comp: ComponentGraph, t, role, instance):
        """St ("start"), Val ("val") or Fin ("fin"): the labelling's vector
        as a tuple, or None when the role does not admit the labelling."""
        raise NotImplementedError

    def tr(self, prev_labelling, labelling, comp: ComponentGraph, instance) -> bool:
        raise NotImplementedError

    def successors(self, prev_labelling, comp, instance):
        """The labellings worth trying after prev_labelling."""
        raise NotImplementedError

    def assignments(self, comp, t, role, instance):
        """All admissible (labelling, vector) pairs of one timed component."""
        out = []
        for labelling in product(self.label_set(instance), repeat=len(comp.vertices)):
            vec = self.check(labelling, comp, t, role, instance)
            if vec is not None:
                out.append((labelling, vec))
        return out


def _role(t, lam):
    return "start" if t == 0 else ("fin" if t == lam else "val")


def _sumset(base, sets):
    acc = {tuple(base)}
    for s in sets:
        acc = {tuple(a + b for a, b in zip(x, y)) for x in acc for y in s}
    return acc


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimal(totals):
    """The totals that no other total is componentwise at or below.

    Dropping the rest keeps every answer: answers ask whether some sum of
    totals is <= v_upper, and a dominated total can always be swapped for
    one below it. A total below another comes first in sorted order.
    """
    kept = []
    for total in sorted(totals):
        if not any(_leq(low, total) for low in kept):
            kept.append(total)
    return set(kept)


def _idle_runs(rd, comps, own_comps):
    """Maximal runs of idle singleton bags ({v}, no edge of v at the bag's
    time), each the only child of the next: top node -> run bottom-up."""
    idle = [len(bag) == 1 and not comps[own_comps[s][0]].edges for s, bag in enumerate(rd.bags)]
    folds = [idle[s] and len(ch) == 1 and idle[ch[0]] for s, ch in enumerate(rd.children)]
    runs = {}
    for s, p in enumerate(rd.parent):
        if folds[s] and (p is None or not folds[p]):
            run = [s]
            while folds[rd.children[run[-1]][0]]:
                run.append(rd.children[run[-1]][0])
            runs[s] = tuple(reversed(run))
    return runs


class TwoStepStructure:
    """Static data shared by a solve: components, homes, Tr sites and idle runs.

    comps maps each (t, i) key of build_two_step's table to its
    ComponentGraph, own_comps[s] lists the keys bag s covers and home maps a
    key back to that bag. tr_site maps each key at t >= 1 to the bag that
    checks its Tr: the home's parent when the parent is at t-1 and holds one
    of its vertices, else the home. checks_from_child groups the keys moved
    to a parent by (parent, home), and extra_vertices[s] lists the vertices
    of those keys outside the parent's bag, whose labels s hands up.
    runs maps the top of each idle run to the run, bottom-up.
    """

    def __init__(self, g: TemporalGraph, root_override=None):
        self.graph = g
        self.decomposition = compute_tim_decomposition(g)
        self.rooted = root_and_augment(self.decomposition, root_override)
        self.two_step = build_two_step(self.rooted, g)
        rd = self.rooted

        # (t, i) keys the i-th component of snapshot t by smallest member
        comps = {}
        for t, at_t in enumerate(self.two_step.snapshot_components):
            for i, view in enumerate(component_graphs(t, at_t, g.edges_at(t or 1))):
                comps[(t, i)] = view
        self.comps = comps
        self.own_comps = self.two_step.own_comps
        self.runs = _idle_runs(rd, comps, self.own_comps)

        # Tr of a component at time t runs where its time-(t-1) labels are
        # visible. Every bag at t-1 holding one of its vertices is a tree
        # neighbour of its home, so that is the home unless the parent is one.
        self.home = {}
        self.tr_site = {}
        self.checks_from_child = {}
        self.extra_vertices = []
        for s, keys in enumerate(self.own_comps):
            t, p = rd.times[s], rd.parent[s]
            up_child = p is not None and rd.times[p] == t - 1
            extra = set()
            for key in keys:
                self.home[key] = s
                if t == 0:
                    continue
                verts = comps[key].vertices
                if up_child and not rd.bags[p].isdisjoint(verts):
                    self.tr_site[key] = p
                    self.checks_from_child.setdefault((p, s), []).append(key)
                    extra.update(verts)
                else:
                    self.tr_site[key] = s
            self.extra_vertices.append(tuple(sorted(extra - rd.bags[p])) if extra else ())

    def postorder(self):
        rd = self.rooted
        order = []
        for root in rd.roots:
            stack = [root]
            emit = []
            while stack:
                x = stack.pop()
                emit.append(x)
                stack.extend(rd.children[x])
            order.extend(reversed(emit))
        return order


@dataclass
class TimSolveResult:
    answer: bool
    phi: int
    two_step_width: int
    profile_counts: dict
    bag_count: int
    n: int
    lifetime: int


DEFAULT_PROFILE_CAP = 2_000_000


def realisable_profiles(structure, plugin, instance, node, child_results, cap=DEFAULT_PROFILE_CAP):
    """Realisable partial profiles of one bag, with their achievable totals.

    Returns a dict keyed by (rho, extra) where rho assigns (labelling, vector)
    to each own-time component and extra lists boundary labels the parent
    needs; each key maps to the set of achievable subtree total vectors.
    """
    rd = structure.rooted
    t = rd.times[node]
    role = _role(t, structure.graph.lifetime)
    down = [c for c in rd.children[node] if rd.times[c] == t - 1]
    up = [c for c in rd.children[node] if rd.times[c] == t + 1]

    own = structure.own_comps[node]
    a_checked = [key for key in own if structure.tr_site.get(key) == node]
    a_set = set(a_checked)

    # guard before materialising anything: the label product alone ought to
    # stay below the cap
    n_labels = len(plugin.label_set(instance))
    estimate = 1
    for c in down:
        estimate *= max(len(child_results[c]), 1)
    for key in own:
        if key not in a_set:
            estimate *= max(n_labels ** len(structure.comps[key].vertices), 1)
    if estimate > cap:
        raise ResourceLimitError(f"bag {node}", estimate, cap)

    free_keys = [key for key in own if key not in a_set]
    free_lists = [plugin.assignments(structure.comps[key], t, role, instance) for key in free_keys]
    zero = tuple([0] * plugin.arity(instance))

    up_checks = {c: structure.checks_from_child.get((node, c), ()) for c in up}
    up_need = {
        c: sorted(
            {v for key in up_checks[c] for v in structure.comps[key].vertices}
            & rd.bags[node]
        )
        for c in up
    }
    up_cache = {c: {} for c in up}

    def filter_up(c, own_label_at):
        restriction = tuple(own_label_at[v] for v in up_need[c])
        cache = up_cache[c]
        if restriction in cache:
            return cache[restriction]
        combined = set()
        for (rho_c, extra_c), totals_c in child_results[c].items():
            extra_map = dict(extra_c)
            rho_map = dict(zip(structure.own_comps[c], rho_c))
            ok = True
            for key in up_checks[c]:
                comp = structure.comps[key]
                nxt = rho_map[key][0]
                prev = tuple(
                    own_label_at[v] if v in rd.bags[node] else extra_map[v]
                    for v in comp.vertices
                )
                if not plugin.tr(prev, nxt, comp, instance):
                    ok = False
                    break
            if ok:
                combined |= totals_c
        cache[restriction] = combined
        return combined

    results = {}
    down_keys = [list(child_results[c].items()) for c in down]
    extra_vs = structure.extra_vertices[node]

    for down_combo in product(*down_keys) if down_keys else [()]:
        prev_label_at = {}
        down_totals = []
        for c, (key_c, totals_c) in zip(down, down_combo):
            rho_c, _ = key_c
            for comp_key, (labelling, _vec) in zip(structure.own_comps[c], rho_c):
                for v, l in zip(structure.comps[comp_key].vertices, labelling):
                    prev_label_at[v] = l
            down_totals.append(totals_c)

        # candidates for Tr-checked own components, narrowed by the previous labels
        a_candidates = []
        feasible = True
        for key in a_checked:
            comp = structure.comps[key]
            prev = tuple(prev_label_at[v] for v in comp.vertices)
            cands = []
            for labelling in plugin.successors(prev, comp, instance):
                if not plugin.tr(prev, labelling, comp, instance):
                    continue
                vec = plugin.check(labelling, comp, t, role, instance)
                if vec is not None:
                    cands.append((labelling, vec))
            if not cands:
                feasible = False
                break
            a_candidates.append(cands)
        if not feasible:
            continue

        for a_choice in product(*a_candidates) if a_candidates else [()]:
            for f_choice in product(*free_lists) if free_lists else [()]:
                assignment = dict(zip(a_checked, a_choice))
                assignment.update(zip(free_keys, f_choice))
                rho = tuple(assignment[key] for key in own)
                own_label_at = {}
                for key in own:
                    labelling = assignment[key][0]
                    for v, l in zip(structure.comps[key].vertices, labelling):
                        own_label_at[v] = l

                up_totals = []
                ok = True
                for c in up:
                    tot = filter_up(c, own_label_at)
                    if not tot:
                        ok = False
                        break
                    up_totals.append(tot)
                if not ok:
                    continue

                own_sum = tuple(
                    sum(vals) for vals in zip(*(assignment[key][1] for key in own))
                ) if own else zero
                totals = _sumset(own_sum, down_totals + up_totals)
                extra = tuple((v, prev_label_at[v]) for v in extra_vs)
                results.setdefault((rho, extra), set()).update(totals)

    return results


def fold_idle_run(structure, plugin, instance, run, base_results, seen):
    """Realisable profiles of the top of an idle run, walked in one step.

    run lists idle singleton bags bottom-up, each the only child of the next;
    base_results is the profile table of the bottom bag's only child, itself an
    idle singleton. Every key of such a table is ((((label,), vector),), ()),
    and a bag's profiles depend on its child's only through the child's label
    and totals, so the walk keeps one totals set per label, pruned to its
    minimal totals on entry. The top bag's table holds a subset of what
    realisable_profiles would return for it, with the same answers.

    seen caches the plugin's answers on one-vertex edgeless components for
    the whole solve: assignments by time, Tr by (later time, earlier label,
    later label). Time 0 is looked up at most once, since a time-0 bag has
    a child only when it is the root.
    """
    rd = structure.rooted
    lam = structure.graph.lifetime
    by_label = {}
    for (((labelling, _vec),), _extra), totals in base_results.items():
        by_label.setdefault(labelling, set()).update(totals)
    by_label = {labelling: _minimal(totals) for labelling, totals in by_label.items()}
    below = rd.children[run[0]][0]
    for node in run:
        t = rd.times[node]
        if t not in seen:
            comp = structure.comps[structure.own_comps[node][0]]
            seen[t] = plugin.assignments(comp, t, _role(t, lam), instance)
        # Tr relates a component to the step before it: the child's component
        # when the child is later in time, the bag's own when it is earlier
        child_later = rd.times[below] > t
        later = below if child_later else node
        tr_comp = structure.comps[structure.own_comps[later][0]]
        step = {}
        for labelling, vec in seen[t]:
            incoming = set()
            for child_labelling, totals in by_label.items():
                pair = (labelling, child_labelling) if child_later else (child_labelling, labelling)
                key = (tr_comp.t,) + pair
                if key not in seen:
                    seen[key] = plugin.tr(*pair, tr_comp, instance)
                if seen[key]:
                    incoming |= totals
            if incoming:
                step[(labelling, vec)] = {
                    tuple(a + b for a, b in zip(total, vec)) for total in incoming
                }
        by_label = {}
        for (labelling, _vec), totals in step.items():
            by_label.setdefault(labelling, set()).update(totals)
        below = node
    return {(((labelling, vec),), ()): totals for (labelling, vec), totals in step.items()}


def solve_component_exchangeable(
    plugin: TimProblemPlugin,
    instance,
    cap=DEFAULT_PROFILE_CAP,
    root_override=None,
    structure=None,
) -> TimSolveResult:
    g = instance.graph
    if g.lifetime == 0:
        raise ValueError("engine needs lifetime >= 1; handle edgeless instances upstream")
    if structure is None:
        structure = TwoStepStructure(g, root_override)
    rd = structure.rooted

    # the bags below a run's top are walked from the top, not visited alone
    inside_runs = {s for run in structure.runs.values() for s in run[:-1]}
    idle_seen = {}
    results = {}
    profile_counts = {}
    for node in structure.postorder():
        if node in inside_runs:
            continue
        run = structure.runs.get(node)
        if run is None:
            children = rd.children[node]
            child_results = {c: results[c] for c in children}
            res = realisable_profiles(structure, plugin, instance, node, child_results, cap)
        else:
            children = rd.children[run[0]]
            res = fold_idle_run(
                structure, plugin, instance, run, results[children[0]], idle_seen
            )
        for c in children:
            del results[c]
        results[node] = res
        profile_counts[node] = sum(len(v) for v in res.values())

    per_tree = []
    for root in rd.roots:
        combined = set()
        for totals in results[root].values():
            combined |= totals
        per_tree.append(combined)

    answer = True
    vu = plugin.v_upper(instance)
    if any(not tree for tree in per_tree):
        answer = False
    else:
        overall = _sumset(tuple([0] * plugin.arity(instance)), per_tree)
        answer = any(_leq(total, vu) for total in overall)

    return TimSolveResult(
        answer,
        structure.decomposition.width,
        structure.two_step.width,
        profile_counts,
        len(rd.bags),
        g.n,
        g.lifetime,
    )
