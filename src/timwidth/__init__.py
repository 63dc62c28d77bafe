"""Interval-membership width parameters and DP engines for temporal graphs."""

from .core import (
    ComponentGraph,
    Snapshot,
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
    TwoStepDecomposition,
    ValidationReport,
    build_two_step,
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
    aggregate_child_totals,
    realisable_profiles,
    solve_component_exchangeable,
)
from .problems import (
    FirefighterInstance,
    HamiltonianInstance,
    MatchingInstance,
    TredInstance,
    TwoCnf,
    ff_tim_plugin,
    ff_vim_plugin,
    gen_firefighter_hardness,
    ham_tim_plugin,
    ham_vim_plugin,
    hardness_target,
    matching_tim_plugin,
    normalize_firefighter,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
    tred_tim_plugin,
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
