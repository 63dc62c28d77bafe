"""Text formats: temporal graph files, decomposition files, DIMACS 2-CNF.

Graph file layout, one record per line, '#' starts a comment:

    tgraph <n> <lifetime>
    root <v>          (optional)
    source <v>        (optional)
    e <u> <v> <t>     (one per time-edge)

Canonical emission orders edges by (t, u, v) and omits comments, so
emit(parse(emit(x))) is byte-identical to emit(x).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TemporalGraph, TemporalGraphError
from .decomposition import TimDecomposition
from .problems.hardness import CnfError, TwoCnf


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _ints(line_no, fields, message):
    """The fields as integers, or a ParseError with message at line_no."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(line_no, message) from None


@dataclass(frozen=True)
class GraphFile:
    graph: TemporalGraph
    root: int | None = None
    source: int | None = None


def parse_graph_file(text: str) -> GraphFile:
    header = None
    header_line = 0
    edges = []
    root = None
    source = None
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "tgraph":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(parts) != 3:
                raise ParseError(line_no, "header needs: tgraph <n> <lifetime>")
            header = tuple(_ints(line_no, parts[1:], "header fields must be integers"))
            if header[0] < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
            header_line = line_no
        elif kind == "e":
            if header is None:
                raise ParseError(line_no, "edge before header")
            if len(parts) != 4:
                raise ParseError(line_no, "edge needs: e <u> <v> <t>")
            u, v, t = _ints(line_no, parts[1:], "edge fields must be integers")
            n, lam = header
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"vertex out of range 0..{n - 1}")
            if u == v:
                raise ParseError(line_no, "self-loop")
            if not (1 <= t <= lam):
                raise ParseError(line_no, f"time out of range 1..{lam}")
            key = (min(u, v), max(u, v), t)
            if key in seen:
                raise ParseError(line_no, f"duplicate time-edge {key}")
            seen.add(key)
            edges.append(key)
        elif kind in ("root", "source"):
            if header is None:
                raise ParseError(line_no, f"{kind} before header")
            if len(parts) != 2:
                raise ParseError(line_no, f"{kind} needs one vertex id")
            (v,) = _ints(line_no, parts[1:], "vertex id must be an integer")
            if not (0 <= v < header[0]):
                raise ParseError(line_no, "vertex out of range")
            if (root if kind == "root" else source) is not None:
                raise ParseError(line_no, f"duplicate {kind}")
            if kind == "root":
                root = v
            else:
                source = v
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if header is None:
        raise ParseError(0, "missing tgraph header")
    n, lam = header
    try:
        g = TemporalGraph(n, edges)
    except TemporalGraphError as exc:
        raise ParseError(header_line, str(exc)) from None
    if g.lifetime != lam:
        raise ParseError(
            header_line, f"header lifetime {lam} but latest edge time is {g.lifetime}"
        )
    return GraphFile(g, root, source)


def parse_temporal_graph(text: str) -> TemporalGraph:
    return parse_graph_file(text).graph


def emit_graph_file(g: TemporalGraph, root=None, source=None) -> str:
    """The graph file of g; raises ValueError for a root or source that
    parse_graph_file would reject."""
    lines = [f"tgraph {g.n} {g.lifetime}"]
    for kind, v in (("root", root), ("source", source)):
        if v is not None:
            if not 0 <= v < g.n:
                raise ValueError(f"{kind} {v} out of range 0..{g.n - 1}")
            lines.append(f"{kind} {v}")
    for u, v, t in g.time_edges:
        lines.append(f"e {u} {v} {t}")
    return "\n".join(lines) + "\n"


def _one_bag_per_node(d: TimDecomposition):
    """Refuse interval nodes: these formats write one bag per node."""
    for i, (t, end) in enumerate(zip(d.times, d.ends)):
        if end > t:
            raise ValueError(
                f"node {i} is an interval node (times {t}..{end}); "
                "emit compute_tim_decomposition's form"
            )


def emit_decomposition(d: TimDecomposition) -> str:
    _one_bag_per_node(d)
    lines = []
    for i, (bag, t) in enumerate(zip(d.bags, d.times)):
        verts = ",".join(str(v) for v in sorted(bag))
        lines.append(f"node {i} time={t} bag={verts}")
    for i, j in sorted(d.arcs):
        lines.append(f"arc {i} {j}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_decomposition(text: str, n: int, lifetime: int) -> TimDecomposition:
    bags = {}
    times = {}
    node_lines = {}
    arc_lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 4:
                raise ParseError(line_no, "node needs: node <id> time=<t> bag=<..>")
            if not parts[2].startswith("time=") or not parts[3].startswith("bag="):
                raise ParseError(line_no, "malformed node record")
            nid, t = _ints(line_no, (parts[1], parts[2][5:]), "node id and time must be integers")
            if nid in bags:
                raise ParseError(line_no, f"duplicate node {nid}")
            times[nid] = t
            node_lines[nid] = line_no
            body = [x for x in parts[3][4:].split(",") if x != ""]
            bags[nid] = frozenset(_ints(line_no, body, "bag vertices must be integers"))
        elif parts[0] == "arc":
            if len(parts) != 3:
                raise ParseError(line_no, "arc needs: arc <i> <j>")
            arc = tuple(_ints(line_no, parts[1:], "arc fields must be integers"))
            if arc in arc_lines:
                raise ParseError(line_no, "duplicate arc {} {}".format(*arc))
            arc_lines[arc] = line_no
        else:
            raise ParseError(line_no, f"unknown record {parts[0]!r}")
    ids = sorted(bags)
    for i, nid in enumerate(ids):
        if nid != i:
            raise ParseError(node_lines[nid], f"node ids must be dense from 0, got {nid}")
    for arc, line_no in arc_lines.items():
        for nid in arc:
            if nid not in bags:
                raise ParseError(line_no, f"arc names undeclared node {nid}")
    return TimDecomposition(
        n,
        lifetime,
        tuple(bags[i] for i in ids),
        tuple(times[i] for i in ids),
        tuple(sorted(arc_lines)),
    )


def decomposition_to_dot(d: TimDecomposition) -> str:
    _one_bag_per_node(d)
    lines = ["digraph tim {", "  rankdir=LR;"]
    for i, (bag, t) in enumerate(zip(d.bags, d.times)):
        label = "{" + ",".join(str(v) for v in sorted(bag)) + "}@" + str(t)
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in sorted(d.arcs):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dimacs_2cnf(text: str) -> TwoCnf:
    """DIMACS-style 2-CNF: 'p cnf <vars> <clauses>' then clause lines ending 0."""

    def check(line_no, clauses):
        # TwoCnf validates; its error belongs to the line that caused it
        try:
            TwoCnf(num_vars, tuple(clauses))
        except CnfError as exc:
            raise ParseError(line_no, str(exc)) from None

    num_vars = None
    clauses = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if num_vars is not None:
                raise ParseError(line_no, "duplicate header")
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(line_no, "header needs: p cnf <vars> <clauses>")
            num_vars, expect = _ints(line_no, parts[2:], "header fields must be integers")
            header_line = line_no
            check(line_no, ())
            continue
        if num_vars is None:
            raise ParseError(line_no, "clause before header")
        lits = _ints(line_no, line.split(), "literals must be integers")
        if not lits or lits[-1] != 0:
            raise ParseError(line_no, "clause must end with 0")
        lits = lits[:-1]
        if len(lits) != 2:
            raise ParseError(line_no, "each clause needs exactly two literals")
        clauses.append(tuple(lits))
        check(line_no, clauses[-1:])
    if num_vars is None:
        raise ParseError(0, "missing p cnf header")
    if expect != len(clauses):
        raise ParseError(header_line, f"header says {expect} clauses, found {len(clauses)}")
    return TwoCnf(num_vars, tuple(clauses))


def emit_dimacs_2cnf(cnf: TwoCnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for a, b in cnf.clauses:
        lines.append(f"{a} {b} 0")
    return "\n".join(lines) + "\n"
