"""Exact arithmetic for dyadic-grid sets and measures.

Sets at resolution 2**-n live on the integer index grid; measures carry
exact rational weights.  Submodules: ``grid`` (sets, covering numbers,
sumsets, file readers, report writers and error types), ``trees``
(branching profiles and tree surgeries), ``measures`` (discrete measures
and entropy), ``projections`` (averaged L2 bounds for arithmetic
projections), ``experiments`` (instance generators and the expansion
harness), ``cli`` (command line).

Importing the package runs none of the five library modules: each sits in
``sys.modules`` as a lazy module (``importlib.util.LazyLoader``) until its
first attribute access, and each name of ``__all__`` is read from its
module (``_EXPORTS``) on first use.
"""

import importlib.util
import sys

_EXPORTS = {
    "grid": (
        "SUMSET_BYTE_BUDGET", "BudgetError", "CertificateError", "DeltaSet", "FormatError",
        "FrostmanReport", "InstanceGenerationError", "ParameterSet", "ScaleSpec", "as_dyadic",
        "covering_counts", "covering_number", "frostman_check", "gen_aligned_triple", "gen_ap",
        "iterated_sum", "load_set", "pow2_ge", "pow2_le", "save_set", "sumset",
    ),
    "measures": (
        "ChainReport", "DiscreteMeasure", "coarsen", "conditional_entropy", "counting_measure",
        "discretize_density_l2", "entropy", "entropy_chain", "load_measure", "product_measure",
        "project", "renormalize_cell", "save_measure", "uniform_fiber_entropy_bound",
    ),
    "trees": (
        "BranchingProfile", "Interval", "IntervalFamily", "branching_profile_of",
        "classify_low_high", "collapse", "collapse_suffixes", "extend_intervals", "find_low_level",
        "gen_uniform_tree", "level_min_gaps", "lift_intervals", "load_family", "load_profile",
        "polarisation_check", "prune_adjacent", "save_family", "save_profile", "trivial_intervals",
        "uniformize",
    ),
    "projections": (
        "EntropyAverageReport", "LowBlockShape", "ProjectionAverageReport", "ProjectionParams",
        "audit_hypotheses", "averaged_l2", "averaged_projection_entropy", "l2_of_projection",
    ),
    "experiments": (
        "AssemblyParams", "AssemblyReport", "ExpansionRecord", "ExperimentConfig", "GreedyReport",
        "SharpnessRow", "build_polarised_instance", "named_stream", "run_alignment_sharpness",
        "run_doubling_ladder", "run_expansion_sweep", "run_final_assembly",
        "run_greedy_iterated_sum",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _lazy(name: str):
    """Register submodule ``name`` in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


grid, measures, trees, projections, experiments = map(_lazy, _EXPORTS)


def __getattr__(name: str):
    """A name of ``__all__``, read from its home module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return [*globals(), *__all__]
