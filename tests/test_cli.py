import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import timwidth
from timwidth.cli import main
from timwidth.decomposition import TimDecomposition, validate_decomposition
from timwidth.generators import gen_hard_ham_path, gen_ordered_tree, gen_random
from timwidth.io import emit_graph_file, parse_graph_file
from timwidth.problems import MatchingInstance

TWO_STEP_STDOUT_DIGEST = "ddc75425166e4b9e95101d18ed55f5539b14c6940218b9b65f0316b8c8b82199"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def single_edge(tmp_path):
    path = tmp_path / "single.tg"
    path.write_text("tgraph 2 1\ne 0 1 1\n")
    return str(path)


@pytest.fixture
def two_hop(tmp_path):
    path = tmp_path / "two.tg"
    path.write_text("tgraph 3 2\nroot 0\nsource 0\ne 0 1 1\ne 1 2 2\n")
    return str(path)


def test_widths_output(capsys, single_edge):
    code, out, _ = run_cli(capsys, "widths", single_edge)
    assert code == 0
    assert out.strip() == "vim=2 cvim_le=2 cvim_ge=2 cvim_bi=2 tim=2"


def test_solve_both_engines(capsys, two_hop):
    for engine in ("vim", "tim"):
        code, out, _ = run_cli(
            capsys, "solve", "temporal-hamiltonian-path", two_hop, "--engine", engine
        )
        assert code == 0
        assert out.splitlines()[0] == "yes"
        assert out.splitlines()[1].startswith("bags=")


def test_solve_firefighter_warns_on_tim(capsys, two_hop):
    code, out, err = run_cli(
        capsys, "solve", "temporal-firefighter", two_hop, "--engine", "tim", "--saves", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "yes"
    assert "warning" in err


def test_solve_matching_and_tred(capsys, two_hop):
    code, out, _ = run_cli(
        capsys, "solve", "matching", two_hop, "--engine", "tim", "--delta", "1", "--size", "2"
    )
    assert code == 0 and out.splitlines()[0] == "yes"
    code, out, _ = run_cli(
        capsys, "solve", "tred", two_hop, "--engine", "tim", "--reach", "1", "--deletions", "1"
    )
    assert code == 0 and out.splitlines()[0] == "yes"


def test_gen_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "random", "--n", "6", "--lifetime", "4", "--p", "0.5", "--seed", "3")
    assert code == 0
    _, out2, _ = run_cli(capsys, "gen", "random", "--n", "6", "--lifetime", "4", "--p", "0.5", "--seed", "3")
    assert out1 == out2


def test_gen_refuses_vertex_outside_graph(capsys):
    for flag in ("--root", "--source"):
        code, out, err = run_cli(capsys, "gen", "random", "--n", "3", flag, "5")
        assert code == 2 and out == ""
        assert f"{flag[2:]} 5 out of range 0..2" in err


def test_gen_keeps_root_and_source_for_every_family(capsys):
    for kind in ("random", "ordered-tree", "hard-ham-path"):
        code, out, _ = run_cli(capsys, "gen", kind, "--n", "8", "--root", "1", "--source", "2")
        assert code == 0
        gf = parse_graph_file(out)
        assert (gf.root, gf.source) == (1, 2)


def test_decompose_round_trips(capsys, tmp_path, two_hop):
    code, out, _ = run_cli(capsys, "decompose", two_hop, "--two-step")
    assert code == 0
    assert "node 0" in out and "two-step-width" in out
    code, dot, _ = run_cli(capsys, "decompose", two_hop, "--dot")
    assert code == 0 and dot.startswith("digraph")


def test_decompose_validates_once_per_form(capsys, monkeypatch, tmp_path):
    # with --two-step, TwoStepStructure's check is the only one; the plain
    # and --dot forms keep cmd_decompose's own
    path = tmp_path / "hard.tg"
    path.write_text(emit_graph_file(gen_hard_ham_path(20)))
    calls = []

    def counted(g, d):
        calls.append(d)
        return validate_decomposition(g, d)

    for module in (timwidth.cli, timwidth.tim_engine, timwidth.decomposition):
        monkeypatch.setattr(module, "validate_decomposition", counted)
    for form in (["--two-step"], ["--dot"], []):
        calls.clear()
        code, _, err = run_cli(capsys, "decompose", str(path), *form)
        assert (code, err, len(calls)) == (0, "", 1), form


def test_decompose_reports_an_invalid_tree_in_every_form(capsys, monkeypatch, two_hop):
    # vertex 2 sits in no bag at time 1
    broken = TimDecomposition(3, 2, (frozenset({0, 1}), frozenset({1, 2})), (1, 2), ((0, 1),))
    monkeypatch.setattr(timwidth.cli, "compute_tim_decomposition", lambda g: broken)
    for form in (["--two-step"], ["--dot"], []):
        code, out, err = run_cli(capsys, "decompose", two_hop, *form)
        assert (code, out) == (2, ""), form
        assert err.startswith("internal error: decomposition invalid: "), form


def test_decompose_forms_exclude_each_other(capsys, two_hop):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", two_hop, "--two-step", "--dot"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "3", "--seed", "5")
    assert code == 0
    done, total = out.strip().split()[0].split("/")
    assert done == total


def test_verify_refuses_negative_count(capsys):
    code, out, err = run_cli(capsys, "verify", "--count", "-5")
    assert (code, out) == (2, "")
    assert err == "error: count -5 is below 0\n"


def test_verify_prints_each_disagreement(capsys, monkeypatch, tmp_path):
    # every solver answers wrong, so all four problems disagree on each graph
    seen = []

    def flipped(solve):
        def wrong(*args):
            seen.append(args)
            answer, result = solve(*args)
            return not answer, result

        return wrong

    for name in ("solve_hamiltonian", "solve_firefighter", "solve_matching", "solve_tred"):
        monkeypatch.setattr(timwidth.cli, name, flipped(getattr(timwidth.cli, name)))
    code, out, err = run_cli(capsys, "verify", "--count", "3", "--seed", "5")
    monkeypatch.undo()
    assert code == 1
    assert out == "0/12 agree\n"
    # one block per disagreement, each opened by its '#' line
    blocks = [b for b in re.split(r"(?m)^(?=# )", err) if b]
    assert [b.split()[1] for b in blocks] == ["ham", "ff", "matching", "tred"] * 3
    matchings = [args[0] for args in seen if isinstance(args[0], MatchingInstance)]
    assert len(matchings) == 3
    for block, inst in zip(blocks[2::4], matchings):
        header = block.splitlines()[0]
        assert header.startswith(f"# matching --delta {inst.delta} --size {inst.size_target} (")
        g = parse_graph_file(block).graph
        assert (g.n, sorted(g.time_edges)) == (inst.graph.n, sorted(inst.graph.time_edges))
    # each block solves again as printed, with the engine left to its default
    for i, block in enumerate(blocks):
        header = block.splitlines()[0]
        problem, *options = header[2 : header.index(" (")].split()
        path = tmp_path / f"{i}.tg"
        path.write_text(block)
        code, out, _ = run_cli(capsys, "solve", problem, str(path), *options)
        assert code == 0, header
        assert out.splitlines()[0] == re.search(r"oracle=(\w+)", header).group(1)


def test_bench_csv(capsys, tmp_path):
    path = tmp_path / "quick.csv"
    for to_file in (False, True):
        out_args = ("--out", str(path)) if to_file else ()
        code, out, _ = run_cli(capsys, "bench", "quick", "--seed", "2", *out_args)
        assert code == 0
        if to_file:
            assert out == ""
            out = path.read_text(encoding="utf-8")
        header = out.splitlines()[0]
        assert header == "instance_id,n,lifetime,vim,tim,problem,engine,answer,micros,peak_table_entries"
        assert len(out.splitlines()) > 5


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tg"
    bad.write_text("tgraph 2 1\ne 0 5 1\n")
    code, _, err = run_cli(capsys, "widths", str(bad))
    assert code == 2
    assert "line 2" in err


def test_usage_errors_exit_2(capsys, single_edge, tmp_path):
    # exit 1 is verify's code for a disagreement
    missing = str(tmp_path / "missing.tg")
    cases = (
        (("solve", "ff", single_edge), "firefighter needs --root or a root directive"),
        (("solve", "matching", single_edge, "--engine", "vim"), "matching is implemented for the tim engine"),
        (("solve", "tred", single_edge), "tred needs --source or a source directive"),
        (("solve", "tred", single_edge, "--source", "0", "--engine", "vim"),
         "tred is implemented for the tim engine"),
        (("solve", "nosuch", single_edge), "unknown problem 'nosuch'"),
        (("gen", "hardness"), "hardness generation needs --cnf <file>"),
        (("bench", "nosuch"), "unknown suite 'nosuch'; choose quick or scaling"),
        (("widths", missing), f"[Errno 2] No such file or directory: {missing!r}"),
    )
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_state_space_refusal_exits_3(capsys, tmp_path):
    # K14 with all 91 edges at timestep 1: one bag of 14 vertices, whose
    # label product the guard refuses before building any option
    path = tmp_path / "k14.tg"
    edges = [f"e {u} {v} 1" for u in range(14) for v in range(u + 1, 14)]
    path.write_text("tgraph 14 1\n" + "\n".join(edges) + "\n")
    code, out, err = run_cli(capsys, "solve", "matching", str(path), "--delta", "3", "--size", "3")
    assert (code, out) == (3, "")
    assert err.startswith("error: state space at ")


def test_gen_hardness(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n-2 3 0\n-1 -3 0\n")
    code, out, _ = run_cli(capsys, "gen", "hardness", "--cnf", str(cnf), "--satisfied", "2")
    assert code == 0
    assert out.splitlines()[0] == "# target_saves=32"
    assert "tgraph 37" in out.splitlines()[1]


def test_gen_hardness_names_bad_cnf_line(capsys, tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 a 0\n")
    code, out, err = run_cli(capsys, "gen", "hardness", "--cnf", str(cnf), "--satisfied", "1")
    assert code == 2 and out == ""
    assert "line 2:" in err


def run_module(module, *argv):
    # the child imports timwidth from where this process found it, so the
    # tests also run from a checkout that is not installed
    package_root = str(Path(timwidth.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(single_edge):
    proc = run_module("timwidth.cli", "widths", single_edge)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("vim=2")


def test_package_runs_as_a_module(single_edge):
    proc = run_module("timwidth", "widths", single_edge)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "vim=2 cvim_le=2 cvim_ge=2 cvim_bi=2 tim=2"


def two_step_stdout_digest(capsys, tmp_path):
    """sha256 over the stdout of `decompose --two-step` on a fixed graph set."""
    graphs = (
        gen_hard_ham_path(20),
        gen_ordered_tree(12, seed=1, max_times_per_edge=2, max_children=2),
        gen_ordered_tree(9, seed=2),
        gen_random(6, 4, 0.5, max_times_per_edge=2, seed=1),
        gen_random(7, 3, 0.4, seed=2),
    )
    digest = hashlib.sha256()
    for i, g in enumerate(graphs):
        path = tmp_path / f"{i}.tg"
        path.write_text(emit_graph_file(g))
        code, out, err = run_cli(capsys, "decompose", str(path), "--two-step")
        assert (code, err) == (0, "")
        digest.update(out.encode())
    return digest.hexdigest()


def test_decompose_two_step_stdout_is_pinned(capsys, tmp_path):
    assert two_step_stdout_digest(capsys, tmp_path) == TWO_STEP_STDOUT_DIGEST
