"""Seeded instance generators.

All randomness comes from random.Random(seed) (Mersenne Twister), so a fixed
seed reproduces the same instance bytes across runs and platforms.
"""

from __future__ import annotations

import random

from .core import TemporalGraph


class GeneratorError(ValueError):
    pass


def gen_random(n, lifetime, edge_prob, max_times_per_edge=1, seed=0) -> TemporalGraph:
    """G(n, p)-style temporal graph: each vertex pair becomes an edge with
    probability edge_prob and draws 1..max_times_per_edge distinct times."""
    if n < 0 or lifetime < 0 or not (0.0 <= edge_prob <= 1.0):
        raise GeneratorError("bad parameters")
    if max_times_per_edge < 1:
        raise GeneratorError("max_times_per_edge must be >= 1")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob and lifetime >= 1:
                count = rng.randint(1, min(max_times_per_edge, lifetime))
                for t in sorted(rng.sample(range(1, lifetime + 1), count)):
                    edges.append((u, v, t))
    return TemporalGraph(n, edges)


def gen_ordered_tree(
    n, seed=0, max_times_per_edge=1, max_children=3, time_budget=None
) -> TemporalGraph:
    """Random temporal tree in which each vertex's incident edges are active
    strictly before every deeper edge of its subtree.

    Edges at tree level d draw their times from a block of timesteps placed
    strictly after level d-1's block, which enforces the ordering. Raises
    GeneratorError when time_budget cannot fit the blocks.
    """
    if n < 1:
        raise GeneratorError("need at least one vertex")
    if max_times_per_edge < 1:
        raise GeneratorError("max_times_per_edge must be >= 1")
    if max_children < 1:
        raise GeneratorError("max_children must be >= 1")
    rng = random.Random(seed)
    parent = [None] * n
    depth = [0] * n
    child_count = [0] * n
    for v in range(1, n):
        # never empty: v vertices have room for v * max_children > v - 1 children
        options = [u for u in range(v) if child_count[u] < max_children]
        p = rng.choice(options)
        parent[v] = p
        child_count[p] += 1
        depth[v] = depth[p] + 1

    levels = {}
    for v in range(1, n):
        levels.setdefault(depth[v] - 1, []).append(v)

    edges = []
    next_time = 1
    for lvl in sorted(levels):
        members = levels[lvl]
        counts = [rng.randint(1, max_times_per_edge) for _ in members]
        slack = rng.randint(0, len(members))
        block = max(counts, default=1) + slack
        pool = list(range(next_time, next_time + block))
        for v, count in zip(members, counts):
            for t in sorted(rng.sample(pool, count)):
                edges.append((parent[v], v, t))
        next_time += block
    if time_budget is not None and next_time - 1 > time_budget:
        raise GeneratorError(
            f"ordering needs lifetime {next_time - 1}, budget is {time_budget}"
        )
    return TemporalGraph(n, edges)


def ordered_tree_width_formula(g: TemporalGraph) -> int:
    """max over t of the max degree of the gap-filled snapshot, plus one.

    The gap filling adds (u, v, t) for every t strictly between two
    activation times of the same edge.
    """
    span = {}
    for u, v, t in g.time_edges:
        lo, hi = span.get((u, v), (t, t))
        span[(u, v)] = (min(lo, t), max(hi, t))
    degree = {}
    best = 0
    for (u, v), (lo, hi) in span.items():
        for t in range(lo, hi + 1):
            for x in (u, v):
                d = degree.get((x, t), 0) + 1
                degree[(x, t)] = d
                if d > best:
                    best = d
    return best + 1


def gen_hard_ham_path(n) -> TemporalGraph:
    """A width-2 temporal path on n vertices with lifetime n that is a
    no-instance of temporal Hamiltonian path but forces exhaustive search to
    explore roughly 3^(n/3) partial paths before concluding.

    The first path edges receive disjoint consecutive-time blocks tiling
    1..n-2 (sizes 3 with a final smaller block), so left-to-right traversals
    branch on every block. The remaining edges alternate between timesteps
    n-1 and n only, which strands every traversal deep in the suffix:
    adjacent spans stay disjoint, so each snapshot has at most single-edge
    components and the TIM width is 2.
    """
    if n < 8:
        raise GeneratorError("family needs n >= 8")
    sizes = []
    remaining = n - 2
    while remaining >= 3:
        sizes.append(3)
        remaining -= 3
    if remaining:
        sizes.append(remaining)
    if len(sizes) > n - 4:
        sizes = sizes[: n - 4]  # keep at least three suffix edges
    edges = []
    t = 1
    for i, size in enumerate(sizes, start=1):
        for off in range(size):
            edges.append((i - 1, i, t + off))
        t += size
    # suffix edges alternate between a top block and a bottom block; both are
    # dead ends for any traversal arriving from the prefix, and the extra
    # activations keep the exhaustive search honest about scanning them
    for j, i in enumerate(range(len(sizes) + 1, n)):
        if j % 2 == 0:
            edges.append((i - 1, i, n - 1))
            edges.append((i - 1, i, n))
        else:
            for t_low in (1, 2, 3):
                edges.append((i - 1, i, t_low))
    return TemporalGraph(n, edges)
