"""Realisable-profile DP over rooted 2-step TIM decompositions.

The engine answers component-exchangeable temporally uniform problems:
plugins supply St / Val / Fin (one check hook that returns a labelling's
counter vector, and an assignments hook that generates what it admits) and
Tr (one successors hook) on timed components, plus a componentwise upper
bound on the summed counter vectors. Realisability is computed bottom-up;
per bag only the assignments of its own-time components and a small
boundary labelling are visible to the parent, which keeps the per-bag
tables at partial-profile size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, le

from .core import ComponentGraph, TemporalGraph, _built_once, _edge_components, component_graphs
# no solve calls compute_tim_decomposition; perfbench/tracing.py patches it here
from .decomposition import (
    compute_tim_decomposition,
    interval_decomposition,
    root_and_augment,
    validate_decomposition,
)
from .vim_engine import ResourceLimitError


class TimProblemPlugin:
    """Problem bundle for the component-exchangeable engine, built for one
    instance: a subclass's constructor takes the instance and sets the
    attributes below, so the hooks take only what changes per call.

    Attributes: labels, the labels a vertex may carry; v_upper, the vector
    the summed counters must stay at or below for a yes, whose length is the
    length of every counter vector; counter_bound, the largest absolute
    value of any entry of one component's vector; total_cap, a
    componentwise cap that no subtree total of a yes-instance exceeds, as a
    tuple as long as v_upper (math.inf leaves an entry uncapped), or None
    for no cap. The engine drops every stored total past total_cap. A
    coordinate may be capped only where every per-component entry is
    non-negative, so totals only grow towards the root, and where the cap
    names no target, so the kept totals answer every target alike.
    Hamiltonian path caps its count of current locations at v_upper, one
    per timestep. Firefighter and tred keep None: firefighter's saved entry
    is negative and a cap on its budget entries kept tables no smaller, and
    tred's v_upper is its target.

    Hooks: labellings are tuples aligned with a component's sorted vertex
    tuple, and each hook reads the component's time as comp.t. check is St,
    Val or Fin by role and returns the counter vector a labelling fixes, or
    None when the role rejects it. assignments returns the (labelling,
    vector) pairs check admits, each once; its default tries every
    labelling through check, so check stays the specification that a
    generating override must match. successors is Tr: it returns exactly
    the labellings that may follow a labelling, each once.
    check, successors and assignments must be deterministic and free of
    side effects: the engine memoises their answers per bag and per solve.
    On a component of one vertex and no edges, check (roles val and fin)
    and successors must not depend on which vertex it holds: inside runs of
    idle bags the engine asks them once per timestep for all such components.
    There, one-vertex answers that name comp.t, as firefighter's do, fold one
    timestep at a time; answers alike at consecutive timesteps fold at once.
    """

    labels: tuple = ()
    # None until a plugin sets them, so a plugin that forgets fails loudly
    v_upper: tuple = None
    counter_bound: int = None
    total_cap: tuple | None = None

    def check(self, labelling, comp: ComponentGraph, role):
        """St ("start"), Val ("val") or Fin ("fin"): the labelling's vector
        as a tuple, or None when the role does not admit the labelling."""
        raise NotImplementedError

    def successors(self, prev_labelling, comp: ComponentGraph):
        """Tr: every labelling that may follow prev_labelling, each once."""
        raise NotImplementedError

    def assignments(self, comp, role):
        """Every (labelling, vector) pair check admits on one timed
        component, each once, as a list; this default generates and tests."""
        out = []
        for labelling in product(self.labels, repeat=len(comp.vertices)):
            vec = self.check(labelling, comp, role)
            if vec is not None:
                out.append((labelling, vec))
        return out


def _role(t, lam):
    return "start" if t == 0 else ("fin" if t == lam else "val")


def _add_sums(into, base, sets):
    """Adds to into every sum of base and one vector from each of sets;
    returns into."""
    if not sets:
        into.add(base)
        return into
    # the partial sums; None while they are the zero vector alone
    acc = (base,) if any(base) else None
    for s in sets[:-1]:
        acc = s if acc is None else {tuple(map(add, x, y)) for x in acc for y in s}
    last = sets[-1]
    if acc is None:
        into |= last
        return into
    for x in acc:
        if any(x):
            into.update([tuple(map(add, x, y)) for y in last])
        else:
            into |= last
    return into


def _leq(a, b):
    return all(map(le, a, b))


def _minimal(totals):
    """The totals that no other total is componentwise at or below.

    Dropping the rest keeps every answer: answers ask whether some sum of
    totals is <= v_upper, and a dominated total can always be swapped for
    one below it. A total below another comes first in sorted order.
    """
    if len(totals) < 2:
        return set(totals)
    kept = []
    for total in sorted(totals):
        if not any(_leq(low, total) for low in kept):
            kept.append(total)
    return set(kept)


def build_two_step(rd, g: TemporalGraph):
    """own_comps, parent_checks and extra_vertices of TwoStepStructure, in
    one walk over rd's nodes."""
    # the component of each vertex with an edge, per snapshot, time 0
    # mirroring time 1; a vertex without one is a component alone
    comp_of = {}
    for t in range(rd.lifetime + 1):
        edges = g.edges_at(t or 1)
        for comp in component_graphs(t, _edge_components(edges), edges):
            for v in comp.vertices:
                comp_of[t, v] = comp

    own_comps, parent_checks, extra_vertices = [], [], []
    for bag, t, p in zip(rd.bags, rd.times, rd.parent):
        mine = {}
        for v in bag:
            comp = comp_of.get((t, v)) or ComponentGraph(t, (v,), ())
            mine[comp.vertices[0]] = comp
        own = tuple([mine[v] for v in sorted(mine)])
        checks = extra = ()
        if p is not None and rd.times[p] < t:
            checks = tuple([i for i, comp in enumerate(own) if not rd.bags[p].isdisjoint(comp.vertices)])
            if checks:
                extra = sorted({v for i in checks for v in own[i].vertices} - rd.bags[p])
        own_comps.append(own)
        parent_checks.append(checks)
        extra_vertices.append(tuple(extra))
    return tuple(own_comps), tuple(parent_checks), tuple(extra_vertices)


class TwoStepStructure:
    """The rooted 2-step TIM decomposition a solve walks, built once.

    d is a decomposition of g in any form validate_decomposition accepts;
    one handed in is checked once by it (ValueError with its message). By
    default it is interval_decomposition(g), not checked again, where each
    idle run off the cycles is one interval node (see
    RootedTimDecomposition), which fold_idle_run walks. rooted is
    root_and_augment(d, root); its width bounds the tables.

    The 2-step bag B2(s) holds the node's own (vertex, time) pairs plus each
    child's pairs at the child's time. build_two_step states it in three
    per-node tuples:
    - own_comps[s], the ComponentGraphs of snapshot rooted.times[s] that bag
      s covers (an interval node's bag next to its parent only), sorted by
      smallest vertex: each the sorted vertex tuple with the snapshot's
      edges inside it, time 0 taking the first snapshot's, mirroring
      F_0 = F_1. Each component of snapshot t is own to exactly one bag at
      time t, its home;
    - parent_checks[s], the positions in own_comps[s] whose Tr the parent
      checks;
    - extra_vertices[s], the vertices of those components outside the
      parent's bag, whose labels s hands up.

    Tr of a component at time t runs where its time-(t-1) labels are
    visible. Every bag at t-1 holding one of its vertices is a tree
    neighbour of its home, and a parent lies wholly before or after t,
    interval nodes included. So a component at t >= 1 has its Tr checked at
    the home's parent when the parent is one time earlier and holds one of
    its vertices, else at the home.

    Built on first read: components[s], the timed components of B2(s) as
    (t, vertex-tuple) entries ordered by time, then smallest member;
    pairs[s], the pair set of B2(s); and width, max |B2(s)|.
    """

    def __init__(self, g: TemporalGraph, d=None, root=None):
        self.graph = g
        if d is None:
            d = interval_decomposition(g)
        else:
            report = validate_decomposition(g, d)
            if not report.ok:
                raise ValueError(report.violation.message)
        self.rooted = rd = root_and_augment(d, root)
        self.own_comps, self.parent_checks, self.extra_vertices = build_two_step(rd, g)

    @_built_once
    def components(self):
        own = self.own_comps
        return tuple(
            tuple(sorted((comp.t, comp.vertices) for x in (s, *children) for comp in own[x]))
            for s, children in enumerate(self.rooted.children)
        )

    @_built_once
    def pairs(self):
        return tuple(
            frozenset((v, t) for t, verts in comps for v in verts) for comps in self.components
        )

    @_built_once
    def width(self):
        return max(map(len, self.pairs), default=0)

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
    profile_counts: dict
    bag_count: int
    n: int
    lifetime: int


DEFAULT_PROFILE_CAP = 2_000_000


def realisable_profiles(structure, plugin, node, child_results, cap=DEFAULT_PROFILE_CAP):
    """Realisable partial profiles of one bag, with their minimal totals.

    Returns a dict keyed by (rho, extra) where rho assigns (labelling, vector)
    to each own-time component and extra lists boundary labels the parent
    needs; each key maps to the minimal achievable subtree total vectors,
    those no other achievable total is componentwise at or below (see
    _minimal).

    Labels are read by position: each vertex of this bag, and of its
    down-children, maps once per call to the (component, position) where
    its label sits in a rho, so the earlier labelling of a component, the
    extra labels and an up-child's restriction are tuples read straight off
    the rhos. Each own component's options come from one memo per call,
    keyed by the component's position and its earlier labelling: the
    successors of that labelling the role admits, or, for None (Tr checked
    at the parent, or t = 0), the plugin's assignments, taken once per bag.
    Each up-child's table is grouped once per call, by the labels it hands
    up and then by the labellings at its parent_checks positions, whose Tr
    this bag checks, each with the union of its totals; per restriction of
    rho to the vertices those components share with this bag, the join
    walks the product of their cached successor sets and looks the groups
    up. A bag with one down-child reads that child's entries and totals as
    they are; several are summed per combination. Each rho's sums go
    straight into its key's set.
    """
    rd, own_comps = structure.rooted, structure.own_comps
    t = rd.times[node]
    role = _role(t, structure.graph.lifetime)
    down = [c for c in rd.children[node] if rd.times[c] == t - 1]
    up = [c for c in rd.children[node] if rd.times[c] == t + 1]

    own = own_comps[node]
    # a Tr-checked component's options depend on the labels below it; the
    # others' are the same for every combination of down-children
    moved = structure.parent_checks[node]
    tr_here = [t >= 1 and x not in moved for x in range(len(own))]

    # guard before materialising anything: the label product alone ought to
    # stay below the cap
    n_labels = len(plugin.labels)
    estimate = 1
    for c in down:
        estimate *= max(len(child_results[c]), 1)
    for comp, here in zip(own, tr_here):
        if not here:
            estimate *= max(n_labels ** len(comp.vertices), 1)
    if estimate > cap:
        raise ResourceLimitError(f"bag {node}", estimate, cap)

    option_cache = {}

    def options_of(x, prev):
        comp = own[x]
        if prev is None:
            opts = plugin.assignments(comp, role)
        else:
            opts = []
            for l in plugin.successors(prev, comp):
                vec = plugin.check(l, comp, role)
                if vec is not None:
                    opts.append((l, vec))
        option_cache[x, prev] = opts
        return opts

    # where each label one timestep before sits: (down-child, component,
    # position)
    below = {
        v: (d, i, j)
        for d, c in enumerate(down)
        for i, comp in enumerate(own_comps[c])
        for j, v in enumerate(comp.vertices)
    }
    free_options = []
    tr_at = []
    for x, (comp, here) in enumerate(zip(own, tr_here)):
        if here:
            free_options.append(None)
            tr_at.append((x, [below[v] for v in comp.vertices]))
        else:
            free_options.append(options_of(x, None))
    extra_at = [(v, *below[v]) for v in structure.extra_vertices[node]]

    # Tr as sets, by (up-child, component position, earlier labelling)
    succ_cache = {}

    def successor_set(c, i, prev):
        succ = succ_cache.get((c, i, prev))
        if succ is None:
            succ = succ_cache[c, i, prev] = frozenset(plugin.successors(prev, own_comps[c][i]))
        return succ

    def joined_up(groups, need, c, restriction):
        # the union of the child's totals whose checked labellings follow
        # rho's restriction and the labels the child hands up
        combined = set()
        for extra_c, by_nxt in groups.items():
            label_at = dict(extra_c)
            label_at.update(zip(need, restriction))
            succs = [
                successor_set(c, i, tuple(label_at[v] for v in own_comps[c][i].vertices))
                for i in structure.parent_checks[c]
            ]
            for nxt in product(*succs):
                if nxt in by_nxt:
                    combined |= by_nxt[nxt]
        # a sum with a dominated total is dominated too (see _minimal)
        return _minimal(combined)

    if up:
        # where each own label sits in a rho: (component, position)
        own_at = {v: (i, j) for i, comp in enumerate(own) for j, v in enumerate(comp.vertices)}
    ups = []
    for c in up:
        at = structure.parent_checks[c]
        need = sorted({v for i in at for v in own_comps[c][i].vertices} & rd.bags[node])
        # the child's totals by the labels it hands up, then by the
        # labellings of the components whose Tr this bag checks
        groups = {}
        for (rho_c, extra_c), totals_c in child_results[c].items():
            by_nxt = groups.setdefault(extra_c, {})
            nxt = tuple([rho_c[i][0] for i in at])
            have = by_nxt.get(nxt)
            by_nxt[nxt] = totals_c if have is None else have | totals_c
        ups.append(([own_at[v] for v in need], {}, groups, need, c))

    # per combination of down-children: their rhos and summed totals
    if not down:
        combos = [((), None)]
    elif len(down) == 1:
        combos = (((rho_c,), totals_c) for (rho_c, _extra), totals_c in child_results[down[0]].items())
    else:
        zero = (0,) * len(plugin.v_upper)
        combos = (
            (tuple(rho_c for (rho_c, _extra), _totals in combo),
             _add_sums(set(), zero, [totals for _, totals in combo]))
            for combo in product(*(child_results[c].items() for c in down))
        )
    results = {}

    for rhos, down_totals in combos:
        extra = tuple([(v, rhos[d][i][0][j]) for v, d, i, j in extra_at]) if extra_at else ()
        options = free_options
        if tr_at:
            options = list(free_options)
            for x, where in tr_at:
                prev = tuple([rhos[d][i][0][j] for d, i, j in where])
                opts = option_cache.get((x, prev))
                options[x] = options_of(x, prev) if opts is None else opts
        for rho in product(*options):
            sets = [] if down_totals is None else [down_totals]
            for need_at, cache, groups, need, c in ups:
                restriction = tuple([rho[i][0][j] for i, j in need_at])
                joined = cache.get(restriction)
                if joined is None:
                    joined = cache[restriction] = joined_up(groups, need, c, restriction)
                if not joined:
                    break
                sets.append(joined)
            else:
                own_sum = rho[0][1] if len(rho) == 1 else tuple(map(sum, zip(*(vec for _, vec in rho))))
                into = results.get((rho, extra))
                if into is None:
                    into = results[rho, extra] = set()
                _add_sums(into, own_sum, sets)

    for key, totals in results.items():
        if len(totals) > 1:
            results[key] = _minimal(totals)
    return results


def _compose(row, power):
    """T^(k+1) from T = row and T^k = power (see fold_idle_run)."""
    earlier = {m: pairs for m, _vec, pairs in power}
    out = []
    for labelling, vec, ((sources, _vec),) in row:
        groups = {}
        for m in sources & earlier.keys():
            for srcs, offset in earlier[m]:
                total = tuple(map(add, offset, vec))
                groups[total] = groups.get(total, frozenset()) | srcs
        if len(groups) > 1:
            # each source keeps its minimal offsets; a lower offset sorts first
            kept = {}
            for total in sorted(groups):
                srcs = groups[total].difference(*(s for low, s in kept.items() if _leq(low, total)))
                if srcs:
                    kept[total] = srcs
            groups = kept
        if groups:
            out.append((labelling, vec, tuple((srcs, total) for total, srcs in groups.items())))
    return tuple(out)


def fold_idle_run(structure, plugin, node, base_results, seen):
    """Realisable profiles of interval node `node`, folded one stretch at a time.

    The node holds {v} from the timestep next to its only child, itself a
    singleton bag, to rd.times[node]; base_results is that child's profile
    table. Its keys are ((((label,), vector),), ()), and a bag's profiles
    depend on its child's only through the child's label and totals, so the
    walk keeps one totals set per label, minimal on return: a
    subset of what realisable_profiles would return for the node's bag,
    applied bag by bag, with the same answers.

    A timestep's rows are its one-step transfer T: per admissible labelling,
    its vector and pairs (sources, offset) adding offset to the totals of
    the labellings the bag before it in the walk may hold. A stretch of k
    timesteps with equal rows applies T^k, whose offsets are the minimal
    vector sums over the k-step label paths from each source. seen holds,
    for the whole solve: the plugin's one-vertex answers per time, its
    assignments there and Tr into it, which both walk directions read, so
    each is asked once per time; the rows of each (time, whether the walk
    goes back in time), interned by content as the list of their powers T,
    T^2, ..., each built from the one before; and per direction, for each
    time a walk has passed, how far on the walk keeps that time's rows, so
    a run finds where each stretch ends with about one lookup.
    """
    rd = structure.rooted
    lam = structure.graph.lifetime
    labels = [(label,) for label in plugin.labels]
    v = min(rd.bags[node])

    # the plugin's one-vertex answers, asked once per time in a solve: the
    # assignments at a time, and Tr into it as a set per earlier label
    assigned = seen.setdefault("assignments", {})
    entering = seen.setdefault("successors", {})

    def rows(t, back):
        powers = seen.get((t, back))
        if powers is None:
            # Tr runs from the earlier bag to the later one: into the bag at
            # t when the walk goes forward in time, out of it when it goes back
            u = t + 1 if back else t
            succ = entering.get(u)
            if succ is None:
                tr_comp = ComponentGraph(u, (v,), ())
                succ = entering[u] = {
                    c: frozenset(plugin.successors(c, tr_comp)) for c in labels
                }
            opts = assigned.get(t)
            if opts is None:
                comp = ComponentGraph(t, (v,), ())
                opts = assigned[t] = plugin.assignments(comp, _role(t, lam))
            row = tuple(
                (d, vec, ((succ[d] if back else frozenset(c for c in labels if d in succ[c]), vec),))
                for d, vec in opts
            )
            powers = seen[t, back] = seen.setdefault(row, [row])
        return powers

    below, top = rd.times[rd.children[node][0]], rd.times[node]
    back = below > top
    step = -1 if back else 1
    # per time: a later time in the walk such that every time from this one
    # up to it (not included) has the same rows
    stretch_end = seen.setdefault(("ends", back), {})

    def stretch(t, end):
        # the first time after t in the walk whose rows differ from t's, or
        # end if none comes before it; every time hopped through records it
        powers, path, u = rows(t, back), [], t
        while True:
            path.append(u)
            u = stretch_end.get(u, u + step)
            if (u - end) * step >= 0 or rows(u, back) is not powers:
                break
        stretch_end.update(dict.fromkeys(path, u))
        return end if (u - end) * step > 0 else u

    by_label = {}
    for (((labelling, _vec),), _extra), totals in base_results.items():
        by_label.setdefault(labelling, set()).update(totals)
    t, end = below + step, top + step
    while t != end:
        # equal rows are one interned list of powers
        powers, u = rows(t, back), stretch(t, end)
        k, t = (u - t) * step, u
        while len(powers) < k:
            powers.append(_compose(powers[0], powers[-1]))
        prev, by_label, vectors = by_label, {}, {}
        for labelling, vec, pairs in powers[k - 1]:
            incoming = set()
            for sources, offset in pairs:
                reached = set()
                for c in sources & prev.keys():
                    reached |= prev[c]
                if any(offset):
                    reached = {tuple(map(add, total, offset)) for total in reached}
                incoming |= reached
            if incoming:
                by_label[labelling], vectors[labelling] = incoming, vec
    return {
        (((labelling, vectors[labelling]),), ()): _minimal(totals)
        for labelling, totals in by_label.items()
    }


def solve_component_exchangeable(
    plugin: TimProblemPlugin,
    g: TemporalGraph,
    cap=DEFAULT_PROFILE_CAP,
    structure=None,
) -> TimSolveResult:
    """Decide the instance plugin was built for, whose graph is g, on
    structure's rooted tree, by default the interval one.

    A structure handed in must be built for g (ValueError).

    Tables are built children first: fold_idle_run walks each interval node
    whose child is a singleton bag, realisable_profiles joins every other
    bag, and a node with a child whose table is empty gets an empty table,
    which either would return. Each table drops the totals past
    plugin.total_cap as it is stored, and a key left with none; profile_counts
    counts those capped tables, per node. cap bounds each bag's label
    product (ResourceLimitError).
    """
    if g.lifetime == 0:
        raise ValueError("engine needs lifetime >= 1; handle edgeless instances upstream")
    if structure is None:
        structure = TwoStepStructure(g)
    elif structure.graph is not g and structure.graph != g:
        raise ValueError("structure was built for another graph than g")
    rd = structure.rooted
    limit = plugin.total_cap

    idle_seen = {}
    results = {}
    profile_counts = {}
    bag_count = 0
    for node in structure.postorder():
        children = rd.children[node]
        run = len(rd.bags[node]) == len(children) == 1 and len(rd.bags[children[0]]) == 1
        bag_count += abs(rd.times[node] - rd.times[children[0]]) if run else 1
        if not all(results[c] for c in children):
            # a child with no profile leaves none to its parent
            res = {}
        elif run:
            res = fold_idle_run(structure, plugin, node, results[children[0]], idle_seen)
        else:
            child_results = {c: results[c] for c in children}
            res = realisable_profiles(structure, plugin, node, child_results, cap)
        for c in children:
            del results[c]
        if limit is not None and res:
            # totals only grow towards the root: one past the cap stays past
            # it; a set with none past it is kept as it is
            capped = {}
            for key, totals in res.items():
                over = [total for total in totals if not _leq(total, limit)]
                if over:
                    totals = totals.difference(over)
                if totals:
                    capped[key] = totals
            res = capped
        results[node] = res
        profile_counts[node] = sum(len(v) for v in res.values())

    per_tree = []
    for root in rd.roots:
        combined = set()
        for totals in results[root].values():
            combined |= totals
        per_tree.append(_minimal(combined))

    vu = plugin.v_upper
    if any(not tree for tree in per_tree):
        answer = False
    else:
        overall = _add_sums(set(), (0,) * len(vu), per_tree)
        answer = any(_leq(total, vu) for total in overall)

    return TimSolveResult(
        answer,
        structure.rooted.width,
        profile_counts,
        bag_count,
        g.n,
        g.lifetime,
    )
