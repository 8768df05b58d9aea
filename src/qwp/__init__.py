"""Measurement-valued predicates, positive trace-preserving programs, and
weakest preconditions over finite-dimensional complex matrices."""

from .errors import (
    DecompositionError,
    DimensionMismatchError,
    NotTracePreservingError,
    QwpError,
    SpaceMismatchError,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    is_hermitian,
    is_psd,
    loewner_leq,
    operator_norm_hermitian,
    sample_random,
    trace_norm,
)
from .predicates import (
    OutcomeSpace,
    Predicate,
    SatMeasure,
    ValidationReport,
    chain_sup,
    effect_of_set,
    is_complete,
    predicate_leq,
    projective_predicate,
    random_predicate,
    sat,
    scaled_predicate,
    validate_predicate,
)
from .programs import (
    DensityState,
    PositivityVerdict,
    QuantumProgram,
    adjoint,
    amplitude_damping,
    apply,
    apply_matrix,
    depolarizing,
    from_choi,
    from_kraus,
    from_super,
    from_unitary,
    identity_program,
    is_completely_positive,
    is_positive_sampled,
    is_trace_preserving,
    measure_branch,
    mix,
    random_cptp,
    sample_program,
    seq,
    to_choi,
    transpose_program,
)
from .wp import (
    HoareTriple,
    VerificationReport,
    WeakestCheckReport,
    Witness,
    dp_reduction,
    duality_residual,
    duality_residual_sweep,
    is_precondition,
    verify_triple,
    weakest_check,
    wp,
    wp_compose_check,
)

__version__ = "0.1.0"
