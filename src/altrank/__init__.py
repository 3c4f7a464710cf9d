"""Exact-arithmetic constructions and certificates for affine spaces of
alternating matrices over prime fields and the rationals.
"""

__version__ = "0.1.0"

from .analyze import (
    FAReport,
    RankProfile,
    TrivialSpectrumReport,
    duality_invariant_check,
    extract_range_lagrangian,
    flanders_atkinson_check,
    rank_profile,
    trivial_spectrum_check,
    trivial_spectrum_gate,
)
from .errors import BudgetExceededError, ContractError
from .families import (
    PlaneCertificate,
    a_xyz,
    build_bordered_alternating,
    build_corank_one_space,
    build_counterexample_plane,
    build_invertible_alternating,
    build_operator_block_space,
    build_rank_at_least_space,
    build_row_block_family,
    build_strictly_upper_space,
    build_unitriangular_space,
    certify_plane_anisotropy,
    optimal_dimension_formula,
    pfaffian_form_coefficients,
    plane_rank_drop_witness,
    translation_rank_two_witness,
)
from .fields import FieldCtx
from .matrices import Matrix, pfaffian, pfaffian_expansion
from .rand import (
    CounterStream,
    derive_seed,
    random_alternating,
    random_invertible,
    random_matrix,
    uniform_below,
)
from .reduction import (
    ReductionCertificate,
    canonical_reduction,
    find_rank_r_member,
    normalize_radical_to_tail,
    reduce_full_row_rank,
    totally_singular_rejection,
    unique_totally_singular_complement,
)
from .spaces import (
    AffineMatrixSpace,
    OptimalSearchResult,
    Span,
    congruence_act,
    equivalence_act,
    exhaustive_optimal_dimension,
    gaussian_binomial,
    spaces_equal,
)
from .symplectic import (
    FormSpacePair,
    find_lagrangian,
    phi_operators_to_forms,
    radical,
    standard_symplectic,
    symplectic_basis,
    totally_singular_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
