"""Each solver returns (answer, result): the engine's own result, or None
when the solver answers before any engine runs."""

import pytest

from timwidth.core import TemporalGraph
from timwidth.problems import (
    FirefighterInstance,
    MatchingInstance,
    TredInstance,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from timwidth.tim_engine import TimSolveResult
from timwidth.vim_engine import VimSolveResult

PATH = TemporalGraph(3, [(0, 1, 1), (1, 2, 2)])
NO_PATH = TemporalGraph(3, [(0, 1, 2), (1, 2, 2)])  # one timestep: no strict path
IDLE_ROOT = TemporalGraph(3, [(1, 2, 1)])  # vertex 0 has no time-edge
ENGINE_RESULT = {"vim": VimSolveResult, "tim": TimSolveResult}


@pytest.mark.parametrize("engine", ["vim", "tim"])
@pytest.mark.parametrize(
    "solve, expected",
    [
        # one vertex is a path (too few time-edges: test_problems_hamiltonian)
        (lambda e: solve_hamiltonian(TemporalGraph(1, []), e), True),
        # a root with no time-edge never spreads the fire
        (lambda e: solve_firefighter(FirefighterInstance(IDLE_ROOT, 0, 2), e), True),
        (lambda e: solve_firefighter(FirefighterInstance(IDLE_ROOT, 0, 3), e), False),
    ],
    ids=["ham-one-vertex", "ff-idle-root-yes", "ff-idle-root-no"],
)
def test_two_engine_solvers_answer_without_an_engine(solve, expected, engine):
    assert solve(engine) == (expected, None)


@pytest.mark.parametrize(
    "solve, expected",
    [
        (lambda: solve_matching(MatchingInstance(PATH, 1, 0)), True),
        (lambda: solve_matching(MatchingInstance(TemporalGraph(2, []), 1, 1)), False),
        (lambda: solve_tred(TredInstance(TemporalGraph(2, []), 0, 1, 0)), True),
        (lambda: solve_tred(TredInstance(TemporalGraph(2, []), 0, 0, 0)), False),
    ],
    ids=["matching-size-0", "matching-edgeless", "tred-edgeless-yes", "tred-edgeless-no"],
)
def test_tim_only_solvers_answer_without_an_engine(solve, expected):
    assert solve() == (expected, None)


@pytest.mark.parametrize(
    "engine, solve",
    [
        ("vim", lambda: solve_hamiltonian(PATH, "vim")),
        ("tim", lambda: solve_hamiltonian(PATH, "tim")),
        ("vim", lambda: solve_hamiltonian(NO_PATH, "vim")),
        ("tim", lambda: solve_hamiltonian(NO_PATH, "tim")),
        ("vim", lambda: solve_firefighter(FirefighterInstance(PATH, 0, 1), "vim")),
        ("tim", lambda: solve_firefighter(FirefighterInstance(PATH, 0, 1), "tim")),
        ("tim", lambda: solve_matching(MatchingInstance(PATH, 1, 1))),
        ("tim", lambda: solve_tred(TredInstance(PATH, 0, 2, 0))),
        ("tim", lambda: solve_tred(TredInstance(PATH, 0, 2, 1))),
    ],
    ids=["ham-vim-yes", "ham-tim-yes", "ham-vim-no", "ham-tim-no", "ff-vim", "ff-tim",
         "matching", "tred-no", "tred-yes"],
)
def test_engine_path_returns_the_engines_result(engine, solve):
    answer, result = solve()
    assert type(result) is ENGINE_RESULT[engine]
    assert result.answer == answer
