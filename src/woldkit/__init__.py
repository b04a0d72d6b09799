"""Numerical toolkit for covariant-representation matrices.

Models a completely bounded covariant pair on finite-dimensional spaces
as the single matrix of the map E (x) H -> H and computes its structural
objects: Moore-Penrose inverses, reduced minimum modulus, regularity and
algebraic cores, generalized inverses, growth conditions, Wold-type
decompositions, the Moore-Penrose dual and intertwiner purity, and
truncated weighted unilateral/bilateral shifts.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConditionIViolated,
    DimensionMismatch,
    IdentityViolated,
    InvalidParams,
    NotContraction,
    NotInvertible,
    NotPSD,
    NotRegular,
    ParseError,
    PreconditionFailed,
    ShapeError,
    WoldkitError,
)
from .growth import (
    DefectOperator,
    GrowthReport,
    check_concave,
    check_expansive,
    check_growth,
    defect_operator,
    gamma,
    gamma_at_least_one,
    minimal_growth_sequence,
)
from .linalg import (
    DEFAULT_POLICY,
    RankWarning,
    Subspace,
    TolerancePolicy,
    pinv,
    psd_sqrt,
    reduced_min_modulus,
)
from .model import (
    Representation,
    check_covariance,
    iterate_map,
    load_representation,
    save_representation,
)
from .shifts import (
    BilateralSpec,
    UnilateralSpec,
    build_bilateral_shift,
    build_unilateral_shift,
    check_bilateral_weight_condition,
    check_unilateral_weight_condition,
    load_shift_spec,
    save_shift_spec,
    shift_pipeline,
)
from .structure import (
    GenInverse,
    RegularityReport,
    algebraic_core,
    is_biregular,
    is_hyper_dagger,
    is_regular,
    make_generalized_inverse,
)
from .wold import (
    WoldResult,
    check_intertwiner,
    check_purity_transfer,
    duality_check,
    generated_subspace,
    is_pure_contraction,
    kernel_span_check,
    wandering_space,
    wold_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
