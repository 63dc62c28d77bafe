import pytest

from timwidth.core import TemporalGraph
from timwidth.decomposition import (
    compute_tim_decomposition,
    interval_decomposition,
    validate_decomposition,
)
from timwidth.generators import gen_hard_ham_path
from timwidth.io import (
    ParseError,
    decomposition_to_dot,
    emit_decomposition,
    emit_dimacs_2cnf,
    emit_graph_file,
    parse_decomposition,
    parse_dimacs_2cnf,
    parse_graph_file,
    parse_temporal_graph,
)
from timwidth.problems import TwoCnf

from .conftest import random_graph


def test_parse_basic():
    gf = parse_graph_file("tgraph 2 1\ne 0 1 1\n")
    assert gf.graph == TemporalGraph(2, [(0, 1, 1)])
    assert gf.root is None


def test_parse_directives_and_comments():
    text = "# hello\ntgraph 3 2\nroot 1\nsource 2\ne 0 1 1 # inline\ne 1 2 2\n"
    gf = parse_graph_file(text)
    assert gf.root == 1 and gf.source == 2
    assert gf.graph.lifetime == 2


def test_parse_errors_name_lines():
    with pytest.raises(ParseError) as err:
        parse_graph_file("tgraph 2 1\ne 0 1 1\ne 0 1 1\n")
    assert err.value.line_no == 3
    with pytest.raises(ParseError):
        parse_graph_file("tgraph 2 1\ne 0 2 1\n")
    with pytest.raises(ParseError):
        parse_graph_file("e 0 1 1\n")
    with pytest.raises(ParseError):
        parse_graph_file("tgraph 2 5\ne 0 1 1\n")  # header lifetime mismatch


def test_parse_rejects_repeated_directives():
    for kind in ("root", "source"):
        with pytest.raises(ParseError) as err:
            parse_graph_file(f"tgraph 3 1\n{kind} 0\ne 0 1 1\n{kind} 2\n")
        assert err.value.line_no == 4
        assert f"duplicate {kind}" in str(err.value)


def test_parse_header_errors_name_header_line():
    with pytest.raises(ParseError) as err:
        parse_graph_file("# negative\ntgraph -2 1\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_graph_file("\ntgraph 2 5\ne 0 1 1\n")
    assert err.value.line_no == 2


def test_round_trip_fuzz(rng):
    for _ in range(40):
        g = random_graph(rng, n_max=7, lam_max=5)
        text = emit_graph_file(g)
        again = parse_temporal_graph(text)
        assert again == g
        assert emit_graph_file(again) == text


def test_decomposition_round_trip(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=5, lam_max=4)
        d = compute_tim_decomposition(g)
        text = emit_decomposition(d)
        back = parse_decomposition(text, g.n, g.lifetime)
        assert back == d
        assert validate_decomposition(g, back).ok


def test_dot_export_mentions_nodes():
    g = TemporalGraph(2, [(0, 1, 1)])
    dot = decomposition_to_dot(compute_tim_decomposition(g))
    assert "digraph" in dot and "{0,1}@1" in dot


def test_emitters_refuse_interval_nodes():
    # the text and dot formats hold one bag per node, so an interval node
    # would come back as one bag at its first time
    g = gen_hard_ham_path(20)
    d = interval_decomposition(g)
    assert validate_decomposition(g, d).ok
    first = next(i for i, (t, end) in enumerate(zip(d.times, d.ends)) if end > t)
    for emit in (emit_decomposition, decomposition_to_dot):
        with pytest.raises(ValueError, match=f"^node {first} is an interval node"):
            emit(d)
    expanded = compute_tim_decomposition(g)
    back = parse_decomposition(emit_decomposition(expanded), g.n, g.lifetime)
    assert back == expanded
    assert validate_decomposition(g, back).ok
    assert "digraph" in decomposition_to_dot(expanded)


def test_dimacs_round_trip():
    cnf = TwoCnf(3, ((1, 2), (-2, 3), (-1, -3)))
    text = emit_dimacs_2cnf(cnf)
    assert text.splitlines()[0] == "p cnf 3 3"
    assert parse_dimacs_2cnf(text) == cnf


def test_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs_2cnf("p cnf 2 1\n1 2 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs_2cnf("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs_2cnf("p cnf 2 2\n1 2 0\n")


def test_dimacs_duplicate_header_names_line():
    with pytest.raises(ParseError) as err:
        parse_dimacs_2cnf("p cnf 2 1\n1 2 0\nc again\np cnf 3 1\n")
    assert err.value.line_no == 4
    assert "duplicate header" in str(err.value)


def test_dimacs_formula_errors_name_lines():
    for bad, line_no, message in (
        ("p cnf 2 3\n1 2 0\n", 1, "header says 3 clauses, found 1"),
        ("c comment\np cnf 2 3\n1 2 0\n", 2, "header says 3 clauses, found 1"),
        ("p cnf -1 0\n", 1, "at least one variable"),
        ("p cnf 1 1\n1 5 0\n", 2, "literal 5 out of range"),
        ("p cnf 2 2\n1 2 0\n\n2 -2 0\n", 4, "repeats a variable"),
    ):
        with pytest.raises(ParseError) as err:
            parse_dimacs_2cnf(bad)
        assert err.value.line_no == line_no, bad
        assert message in str(err.value), bad


def test_dimacs_non_integer_fields_name_lines():
    with pytest.raises(ParseError) as err:
        parse_dimacs_2cnf("p cnf 2 1\n1 a 0\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_dimacs_2cnf("c comment\np cnf two 1\n1 2 0\n")
    assert err.value.line_no == 2


def test_repeated_arc_is_refused_at_its_line():
    # validate_decomposition used to report the repeat as a cycle
    text = "node 0 time=1 bag=0,1\nnode 1 time=2 bag=0,1\narc 0 1\n# again\narc 0 1\n"
    with pytest.raises(ParseError, match="duplicate arc 0 1") as err:
        parse_decomposition(text, 2, 2)
    assert err.value.line_no == 5
    # the reverse arc is a different arc, left to validate_decomposition
    assert parse_decomposition(text.replace("arc 0 1\n#", "arc 1 0\n#"), 2, 2).arcs == ((0, 1), (1, 0))


def test_decomposition_errors_name_lines():
    good = "node 0 time=1 bag=0,1\nnode 1 time=2 bag=0,1\narc 0 1\n"
    assert parse_decomposition(good, 2, 2).arcs == ((0, 1),)
    for bad, line_no in (
        ("node x time=1 bag=0,1\n", 1),
        ("node 0 time=1 bag=0,1\nnode 1 time=two bag=0,1\n", 2),
        ("node 0 time=1 bag=0,y\n", 1),
        ("node 0 time=1 bag=0,1\nnode 1 time=2 bag=0,1\narc 0 z\n", 3),
        ("node 0 time=1 bag=0,1\nnode 0 time=2 bag=0,1\n", 2),
        # ids that are not dense from 0 are reported at the first node out of place
        ("node 0 time=1 bag=0,1\n# gap\nnode 2 time=2 bag=0,1\n", 3),
        ("node -1 time=1 bag=0,1\nnode 0 time=2 bag=0,1\n", 1),
        # an arc to an undeclared node is reported at the arc
        ("node 0 time=1 bag=0,1\narc 0 5\n", 2),
        ("arc 1 0\nnode 0 time=1 bag=0,1\n", 1),
    ):
        with pytest.raises(ParseError) as err:
            parse_decomposition(bad, 2, 2)
        assert err.value.line_no == line_no, bad


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("tgraph 2 1\ntgraph 2 1\n", 2, "duplicate header"),
        ("# two fields\ntgraph 2\n", 2, "header needs: tgraph <n> <lifetime>"),
        ("tgraph 2 1\ne 0 1\n", 2, "edge needs: e <u> <v> <t>"),
        ("tgraph 2 1\ne 1 1 1\n", 2, "self-loop"),
        ("tgraph 2 2\ne 0 1 3\n", 2, "time out of range 1..2"),
        ("tgraph 2 1\ne 0 1 0\n", 2, "time out of range 1..1"),
        ("root 0\ntgraph 2 1\n", 1, "root before header"),
        ("source 0\ntgraph 2 1\n", 1, "source before header"),
        ("tgraph 2 1\nroot 0 1\n", 2, "root needs one vertex id"),
        ("tgraph 2 1\nsource\n", 2, "source needs one vertex id"),
        ("tgraph 2 1\nroot 2\n", 2, "vertex out of range"),
        ("tgraph 2 1\nsource -1\n", 2, "vertex out of range"),
        ("tgraph 2 1\nedge 0 1 1\n", 2, "unknown record 'edge'"),
        ("# no header\n\n", 0, "missing tgraph header"),
    ],
)
def test_graph_file_errors_are_located(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_graph_file(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("node 0 time=1\n", 1, "node needs: node <id> time=<t> bag=<..>"),
        ("node 0 time=1 bag=0\nnode 1 t=1 bag=1\n", 2, "malformed node record"),
        ("node 0 time=1 bag=0,1\nnode 1 1 bag=1\n", 2, "malformed node record"),
        ("node 0 time=1 bag=0\narc 0\n", 2, "arc needs: arc <i> <j>"),
        ("node 0 time=1 bag=0\nedge 0 1\n", 2, "unknown record 'edge'"),
    ],
)
def test_decomposition_file_errors_are_located(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_decomposition(text, 2, 1)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("p cnf 2\n", 1, "header needs: p cnf <vars> <clauses>"),
        ("p sat 2 1\n", 1, "header needs: p cnf <vars> <clauses>"),
        ("p cnf 2 1\n1 2\n", 2, "clause must end with 0"),
        ("c comment only\n", 0, "missing p cnf header"),
    ],
)
def test_dimacs_errors_are_located(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_dimacs_2cnf(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"
