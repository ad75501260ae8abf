"""Toolkit deciding Gorenstein-type properties of finite EI category algebras,
with an exact homological oracle for independent verification."""

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
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
    SkeletalEIPresentation,
    ValidationError,
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
from .groups import GroupAction, GroupTable, cyclic_group, symmetric_group_3
from .homology import (
    DimensionVerdict,
    ZaksViolation,
    ext_dims,
    global_dimension,
    injective_dimension,
    is_gorenstein_oracle,
    projective_dimension,
    projective_resolution,
)
from .linalg import Field, Matrix, QQ
from .triangular import phi_domain_dim

__all__ = [name for name in dir() if not name.startswith("_")]
