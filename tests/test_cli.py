import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import timwidth
from timwidth.cli import main
from timwidth.io import parse_graph_file


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


def test_decompose_round_trips(capsys, tmp_path, two_hop):
    code, out, _ = run_cli(capsys, "decompose", two_hop, "--two-step")
    assert code == 0
    assert "node 0" in out and "two-step-width" in out
    code, dot, _ = run_cli(capsys, "decompose", two_hop, "--dot")
    assert code == 0 and dot.startswith("digraph")


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "3", "--seed", "5")
    assert code == 0
    done, total = out.strip().split()[0].split("/")
    assert done == total


def test_verify_prints_each_disagreement(capsys, monkeypatch):
    real = timwidth.cli.solve_matching
    seen = []

    def wrong_matching(inst):
        seen.append(inst)
        return not real(inst)[0], []

    monkeypatch.setattr(timwidth.cli, "solve_matching", wrong_matching)
    code, out, err = run_cli(capsys, "verify", "--count", "3", "--seed", "5")
    assert code == 1
    assert out == "9/12 agree\n"
    # one block per disagreement, each opened by its '#' line
    blocks = [b for b in re.split(r"(?m)^(?=# )", err) if b]
    assert len(blocks) == len(seen) == 3
    for block, inst in zip(blocks, seen):
        header = block.splitlines()[0]
        assert header.startswith(f"# matching --delta {inst.delta} --size {inst.size_target} (")
        g = parse_graph_file(block).graph
        assert (g.n, sorted(g.time_edges)) == (inst.graph.n, sorted(inst.graph.time_edges))


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "quick", "--seed", "2")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "instance_id,n,lifetime,vim,tim,problem,engine,answer,micros,peak_table_entries"
    assert len(out.splitlines()) > 5


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tg"
    bad.write_text("tgraph 2 1\ne 0 5 1\n")
    code, _, err = run_cli(capsys, "widths", str(bad))
    assert code == 2
    assert "line 2" in err


def test_gen_hardness(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n-2 3 0\n-1 -3 0\n")
    code, out, _ = run_cli(capsys, "gen", "hardness", "--cnf", str(cnf), "--satisfied", "2")
    assert code == 0
    assert out.splitlines()[0] == "# target_saves=32"
    assert "tgraph 37" in out.splitlines()[1]


def test_console_entry_point(single_edge):
    # the child imports timwidth from where this process found it, so the
    # test also runs from a checkout that is not installed
    package_root = str(Path(timwidth.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "timwidth.cli", "widths", single_edge],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("vim=2")
