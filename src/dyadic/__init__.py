"""Exact arithmetic for dyadic-grid sets and measures.

Sets at resolution 2**-n live on the integer index grid; measures carry
exact rational weights.  Submodules: ``grid`` (sets, covering numbers,
sumsets), ``trees`` (branching profiles and tree surgeries), ``measures``
(discrete measures and entropy), ``projections`` (averaged L2 bounds for
arithmetic projections), ``experiments`` (instance generators and the
expansion harness), ``cli`` (command line).
"""

from .experiments import (
    AssemblyParams,
    AssemblyReport,
    ExpansionRecord,
    ExperimentConfig,
    GreedyReport,
    InstanceGenerationError,
    SharpnessRow,
    build_polarised_instance,
    named_stream,
    run_alignment_sharpness,
    run_doubling_ladder,
    run_expansion_sweep,
    run_final_assembly,
    run_greedy_iterated_sum,
)
from .grid import (
    DeltaSet,
    FrostmanReport,
    ParameterSet,
    ScaleSpec,
    as_dyadic,
    covering_counts,
    covering_number,
    frostman_check,
    gen_aligned_triple,
    gen_ap,
    iterated_sum,
    load_set,
    pow2_ge,
    pow2_le,
    save_set,
    sumset,
)
from .measures import (
    ChainReport,
    DiscreteMeasure,
    autocorrelation_peak_ratio,
    coarsen,
    concavity_check,
    conditional_entropy,
    convolve,
    counting_measure,
    discretize_density_l2,
    entropy,
    entropy_chain,
    load_measure,
    product_measure,
    project,
    renormalize_cell,
    save_measure,
    symmetrize,
    uniform_fiber_entropy_bound,
)
from .projections import (
    EntropyAverageReport,
    LowBlockShape,
    ProjectionAverageReport,
    ProjectionParams,
    audit_hypotheses,
    averaged_l2,
    averaged_projection_entropy,
    common_tube_c_set,
    far_pair_nu_masses,
    l2_of_projection,
    near_pair_mass,
    tube_diameter_ok,
    vertical_separation_margin,
)
from .trees import (
    BranchingProfile,
    Interval,
    IntervalFamily,
    branching_profile_of,
    classify_low_high,
    collapse,
    collapse_suffixes,
    extend_intervals,
    find_low_level,
    gen_uniform_tree,
    level_min_gaps,
    lift_intervals,
    load_family,
    load_profile,
    polarisation_check,
    prune_adjacent,
    save_family,
    save_profile,
    trivial_intervals,
    uniformize,
)

__version__ = "0.1.0"
