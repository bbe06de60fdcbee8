"""Concentration tail bounds for Lipschitz functions of graph-dependent variables.

The package is organized around one pipeline: describe the dependence
structure (``graph``), optimize the fractional covers that drive the
denominators (``covers``), evaluate the closed-form bounds (``bounds``),
verify the underlying coupling construction exactly on small joints
(``coupling``), and validate everything empirically at scale
(``montecarlo``).  ``cli`` exposes the same pipeline as a command-line tool.
"""

from .bounds import (
    BoundReport,
    compare_bounds,
    decomposable_denominator,
    forest_denominator,
    janson_denominator,
    m_dependent_denominator,
    mcdiarmid_denominator,
    tail_bound,
)
from .covers import (
    CoverKind,
    CoverSolution,
    LipschitzProfile,
    Strategy,
    WeightedCover,
    enumerate_independent_sets,
    enumerate_induced_forests,
    fractional_chromatic_number,
    fractional_vertex_arboricity,
    lipschitz_profile,
    make_cover,
    optimize_decomposable_denominator,
    uniform_profile,
    validate_cover,
)
from .coupling import (
    FiniteJoint,
    LipschitzFunction,
    build_tree_joint,
    finite_joint,
    latent_tree_spec,
    lipschitz_function,
    verify_all_couplings,
    verify_dependency,
    verify_difference_bound,
)
from .errors import (
    DegenerateProfileError,
    FloatRangeError,
    InputError,
    KindError,
    ScaleError,
    VerificationError,
)
from .graph import (
    BlockPartition,
    ForestClassification,
    Graph,
    OrderedTree,
    block_partition,
    build_graph,
    classify,
    m_dependence_graph,
    rooted_order,
)
from .montecarlo import (
    SamplerSpec,
    TailEstimate,
    block_factor_spec,
    estimate_tails,
    latent_graph_spec,
    sample,
    validate_bounds,
)

__version__ = "0.1.0"
