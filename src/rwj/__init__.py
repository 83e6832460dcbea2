"""Random walks with uniform jumps on weighted graphs.

Builds the jump-walk transition system P(alpha) = (D + alpha I)^{-1}
(A + (alpha/n) 11^T), computes its spectrum and relaxation time, analyses the
first-order effect of small jump rates, evaluates a ladder of improvement
conditions, and scans graph catalogs and random models for graphs whose
relaxation time worsens when jumps are introduced.
"""

from .conditions import (
    Cor2Verdict,
    Verdict,
    corollary1,
    corollary2,
    corollary4,
    full_report,
    rayleigh_minimum,
    theorem2,
)
from .errors import (
    BranchCrossingError,
    ConventionError,
    DisconnectedGraphError,
    GenerationError,
    GraphFormatError,
    NumericalError,
    RwjError,
)
from .graphs import (
    DegreeStats,
    WeightedGraph,
    degree_stats,
    generate,
    is_connected,
    parse_edgelist,
    parse_graph6,
    write_edgelist,
    write_graph6,
)
from .perturb import (
    IMPROVES,
    WORSENS,
    NandS,
    classify_small_alpha,
    degenerate_first_order,
    finite_difference_derivative,
    nand_s_check,
    sweep_confirms,
)
from .search import (
    ScanRecord,
    ScanSummary,
    TwoNodeParams,
    analyze_graph,
    scan_catalog,
    scan_random,
    two_node_closed_form,
    two_node_grid_search,
)
from .spectral import (
    PAPER,
    SLEM,
    AlphaBar,
    SpectralSummary,
    TransitionSystem,
    alpha_bar,
    build_transition,
    dobrushin,
    dobrushin_bound,
    mixing_time_bounds,
    spectrum,
    track_branch,
)

__version__ = "0.1.0"
