"""Truncated modular-exponentiation operators for Shor-style factoring studies.

The library synthesizes the composite powers U^p of a modular-multiplication
operator as reversible gate circuits restricted to the orbit of 1, simulates
the phase-estimation circuit over them exactly, and extracts factors through
continued fractions. Operators can be truncated level by level to study how
much of the circuit is actually needed to factor.
"""

from .circuit import (
    Control,
    Gate,
    LeveledCircuit,
    PermutationTable,
    apply_gates,
    apply_to_basis,
    apply_to_basis_array,
    from_json,
    from_json_dict,
    lower_negative_controls,
    permutation_table,
    to_json,
    to_json_dict,
)
from .experiments import (
    ResolutionCell,
    TriesResult,
    TryOutcome,
    derive_seed,
    peak_presence,
    resolution_study,
    study_csv,
    study_json,
    tries_ensemble,
    tries_until_factor,
    truncation_sweep,
)
from .modmath import (
    ConvergentReport,
    ConvergentVerdict,
    CycleDecomposition,
    FactoringInstance,
    NotCoprimeError,
    Orbit,
    PeriodCheck,
    TrivialFactorError,
    analyze_measurement,
    build_orbit,
    check_period,
    continued_fraction,
    convergents,
    cycle_decomposition,
    extract_factors,
    mod_pow,
)
from .qasm import to_qasm3
from .shor import (
    PhaseDistribution,
    exact_distribution,
    histogram_csv,
    nearest_phase_bin,
    sample,
    work_images,
)
from .synth import (
    ProtectedCollisionError,
    minimize_controls,
    synth_all_powers,
    synth_level,
    synth_me_operator,
    synth_powers,
    transition_order,
    truncate,
)

__version__ = "0.1.0"
