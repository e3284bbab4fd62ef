"""Certified classification of structured tensor classes.

Dense order-m tensors are tested for membership in the semi-positive,
copositive, Z/M, S/S0 families and their "almost" variants (every proper
principal subtensor inside the class, the full tensor outside).  Decisions
come with machine-checkable evidence: a witness vector that re-verifies, or a
subdivision certificate with a declared tolerance.
"""

from .core import (
    Tensor,
    add,
    apply,
    apply_jacobian,
    diag,
    form_value,
    is_nonneg,
    is_positive,
    is_symmetric,
    max_abs,
    permute,
    principal_subtensor,
    row_subtensor,
    scale,
    scale_modes,
    scale_rows,
    symmetrize,
)
from .classifiers import (
    CLASS_NAMES,
    ClassificationReport,
    Config,
    EntryConditions,
    NotZTensorError,
    SubsetCapError,
    TensorClassifier,
    ZDecomposition,
    check_weighted_characterization,
    classify,
    entry_conditions,
    has_nonneg_row_subtensor,
    is_almost_copositive,
    is_almost_semi_positive,
    is_completely_s,
    is_completely_s0,
    is_copositive,
    is_diag_dominant,
    is_m_tensor,
    is_s0_tensor,
    is_s_tensor,
    is_semi_positive,
    is_z_tensor,
    stabilizing_diagonal,
    z_decompose,
)
from .reference import (
    Simplex,
    apply_batch,
    component_coeffs,
    form_batch,
    form_coeffs,
    hadamard,
    refine,
    standard_simplex,
)
from .spectral import (
    EigenPair,
    RadiusEnclosure,
    find_negative_hpp_eigenpair,
    residual,
    spectral_radius_nonneg,
)
from .subdivision import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Verdict,
    WitnessError,
    decide_all_components_negative,
    decide_form_nonneg,
    search_nonneg_solution,
)
from .tensor_io import (
    TensorFormatError,
    canonical_dumps,
    load_tensor,
    parse_tensor,
    save_tensor,
    tensor_digest,
    tensor_to_json,
)
from .verify import (
    Fixture,
    GeneratorSpec,
    RejectionBudgetError,
    SUITES,
    generate,
    load_fixtures,
    run_all,
    run_fixtures,
    run_suite,
)

__version__ = "0.1.0"
