"""Toolkit deciding Gorenstein-type properties of finite EI category algebras,
with an exact homological oracle for independent verification."""

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    ModuleRep,
    RadicalVerificationFailed,
    algebra_from_category,
    group_algebra,
    opposite,
    radical,
    top_module,
)
from .category import (
    CategoryError,
    FiniteCategory,
    NotEI,
    NotSkeletal,
    SkeletalEIPresentation,
    ValidationError,
    admissible_order,
    is_ei,
    presentation_of,
    skeletalize,
    validate,
)
from .classify import ClassificationReport, classify, gorenstein_bound
from .families import (
    Poset,
    biset_category,
    corpus,
    group_category,
    poset_category,
    poset_is_free,
    transporter_category,
)
from .freeness import FreenessReport, decompose, is_free, ufp_direct, unfactorizables
from .groups import BiSet, GroupAction, GroupTable, cyclic_group, symmetric_group_3
from .homology import (
    DimensionVerdict,
    ZaksViolation,
    ext_dims,
    global_dimension,
    injective_dimension,
    is_gorenstein_oracle,
    is_module_projective,
    projective_resolution,
)
from .linalg import Field, Matrix, QQ
from .triangular import (
    ColumnModule,
    HypothesisViolated,
    TriangularPresentation,
    build_i_t,
    build_j_t,
    build_m_star,
    build_triangular,
    column_to_rep,
    is_mstar_projective,
    phi_domain_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
