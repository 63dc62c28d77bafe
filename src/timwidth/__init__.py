"""Interval-membership width parameters and DP engines for temporal graphs."""

from .core import (
    ComponentGraph,
    StaticGraph,
    TemporalGraph,
    TemporalGraphError,
    components_at,
    is_strict_temporal_path,
    prefix_graph,
    shift_graph,
    snapshot,
    suffix_graph,
)
from .widths import (
    ConnectedVimResult,
    VimSequence,
    bidirectional_cvim_width,
    connected_vim_width,
    vim_sequence,
)
from .decomposition import (
    RootedTimDecomposition,
    TimDecomposition,
    ValidationReport,
    compute_tim_decomposition,
    decomposition_from_vim,
    root_and_augment,
    tim_width,
    validate_decomposition,
)
from .vim_engine import (
    KXState,
    ResourceLimitError,
    VimProblemPlugin,
    VimSolveResult,
    enumerate_bag_states,
    solve_locally_uniform,
)
from .tim_engine import (
    TimProblemPlugin,
    TimSolveResult,
    TwoStepStructure,
    realisable_profiles,
    solve_component_exchangeable,
)
from .problems import (
    FirefighterInstance,
    FirefighterTimPlugin,
    FirefighterVimPlugin,
    HamiltonianInstance,
    HamiltonianTimPlugin,
    HamiltonianVimPlugin,
    MatchingInstance,
    MatchingTimPlugin,
    TredInstance,
    TredTimPlugin,
    TwoCnf,
    gen_firefighter_hardness,
    hardness_target,
    normalize_firefighter,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from .generators import (
    gen_hard_ham_path,
    gen_ordered_tree,
    gen_random,
    ordered_tree_width_formula,
)
from .io import (
    emit_decomposition,
    emit_graph_file,
    parse_decomposition,
    parse_graph_file,
    parse_temporal_graph,
)

__version__ = "0.1.0"
