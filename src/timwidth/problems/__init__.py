from .instances import (
    FirefighterInstance,
    HamiltonianInstance,
    MatchingInstance,
    TredInstance,
)
from .hamiltonian import HamiltonianTimPlugin, HamiltonianVimPlugin, solve_hamiltonian
from .firefighter import (
    FirefighterTimPlugin,
    FirefighterVimPlugin,
    normalize_firefighter,
    solve_firefighter,
)
from .matching import MatchingTimPlugin, solve_matching
from .reachability import TredTimPlugin, solve_tred
from .hardness import CnfError, TwoCnf, gen_firefighter_hardness, hardness_target

__all__ = [
    "CnfError",
    "FirefighterInstance",
    "FirefighterTimPlugin",
    "FirefighterVimPlugin",
    "HamiltonianInstance",
    "HamiltonianTimPlugin",
    "HamiltonianVimPlugin",
    "MatchingInstance",
    "MatchingTimPlugin",
    "TredInstance",
    "TredTimPlugin",
    "TwoCnf",
    "gen_firefighter_hardness",
    "hardness_target",
    "normalize_firefighter",
    "solve_firefighter",
    "solve_hamiltonian",
    "solve_matching",
    "solve_tred",
]
