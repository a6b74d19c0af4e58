"""Exact symbolic computation for the supergroups S^{1|1} and SU(1|1).

Scalar towers, Grassmann algebras, supermatrices, T-points of the groups,
their Lie superalgebras, constructive decomposition of finite-dimensional
representations, and Peter-Weyl expansion of polynomial sections in matrix
coefficients, all over exact arithmetic.
"""

from .scalars import (
    ExtendedScalar,
    ExtensionMismatchError,
    GaussianRational,
    scalar_from_json,
    scalar_to_json,
    sqrt_neg_im,
)
from .grassmann import (
    GeneratorSet,
    GrassmannElement,
    element_from_json,
)
from .linalg import (
    Matrix,
    block_diagonal,
    from_columns,
    matrix_from_json,
    matrix_to_json,
)
from .supermatrix import (
    SuperMatrix,
    berezinian,
    inverse_1_1,
    supercommutator,
)
from .liealg import (
    LieSuperAlgebra,
    Representation,
    builtin_algebra,
    find_even_intertwiners,
    representation_from_json,
    validate_representation,
)
from .reps import (
    DecompositionReport,
    conjugate,
    decompose_s11,
    decompose_su11,
    direct_sum,
    make_V_m,
    make_adjoint_su11,
    make_pi_m,
    make_trivial,
    make_weight_zero_s11,
    permute,
    random_direct_sum,
    scramble,
)
from .supergroup import (
    FactorizationTriple,
    GL11Point,
    c11x_ring,
    defactorize,
    factorization_triple_ring,
    factorize,
    membership,
    point_from_json,
    rho_s11,
    s11_chart_ring,
    sigma_su,
    sl11_generic_ring,
    su11_chart_ring,
)
from .harmonic import (
    ExpansionResult,
    Section,
    expand,
    matrix_coefficients,
    reconstruct,
    section_from_json,
)

__all__ = [
    "ExtendedScalar",
    "ExtensionMismatchError",
    "GaussianRational",
    "scalar_from_json",
    "scalar_to_json",
    "sqrt_neg_im",
    "GeneratorSet",
    "GrassmannElement",
    "element_from_json",
    "Matrix",
    "block_diagonal",
    "from_columns",
    "matrix_from_json",
    "matrix_to_json",
    "SuperMatrix",
    "berezinian",
    "inverse_1_1",
    "supercommutator",
    "LieSuperAlgebra",
    "Representation",
    "builtin_algebra",
    "find_even_intertwiners",
    "representation_from_json",
    "validate_representation",
    "DecompositionReport",
    "conjugate",
    "decompose_s11",
    "decompose_su11",
    "direct_sum",
    "make_V_m",
    "make_adjoint_su11",
    "make_pi_m",
    "make_trivial",
    "make_weight_zero_s11",
    "permute",
    "random_direct_sum",
    "scramble",
    "FactorizationTriple",
    "GL11Point",
    "c11x_ring",
    "defactorize",
    "factorization_triple_ring",
    "factorize",
    "membership",
    "point_from_json",
    "rho_s11",
    "s11_chart_ring",
    "sigma_su",
    "sl11_generic_ring",
    "su11_chart_ring",
    "ExpansionResult",
    "Section",
    "expand",
    "matrix_coefficients",
    "reconstruct",
    "section_from_json",
]

__version__ = "0.1.0"
