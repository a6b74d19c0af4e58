"""Exact symbolic computation for the supergroups S^{1|1} and SU(1|1).

Scalar towers, Grassmann algebras, supermatrices, T-points of the groups,
their Lie superalgebras, constructive decomposition of finite-dimensional
representations, and Peter-Weyl expansion of polynomial sections in matrix
coefficients, all over exact arithmetic.

``import supercircle`` loads no layer: each layer is imported the first
time one of its names (or the layer itself) is used, so a caller compiles
only the layers it reaches.
"""

from importlib import import_module

# The public names, by the layer that defines them, in dependency order.
_EXPORTS = {
    "scalars": ("ExtendedScalar", "ExtensionMismatchError", "GaussianRational",
                "scalar_from_json", "scalar_to_json", "sqrt_neg_im"),
    "grassmann": ("GeneratorSet", "GrassmannElement", "element_from_json"),
    "linalg": ("Matrix", "block_diagonal", "from_columns", "matrix_from_json",
               "matrix_to_json"),
    "supermatrix": ("SuperMatrix", "berezinian", "inverse_1_1",
                    "supercommutator"),
    "liealg": ("LieSuperAlgebra", "Representation", "builtin_algebra",
               "find_even_intertwiners", "representation_from_json",
               "validate_representation"),
    "reps": ("DecompositionReport", "conjugate", "decompose_s11",
             "decompose_su11", "direct_sum", "make_V_m", "make_adjoint_su11",
             "make_pi_m", "make_trivial", "make_weight_zero_s11", "permute",
             "random_direct_sum", "scramble"),
    "supergroup": ("FactorizationTriple", "GL11Point", "c11x_ring",
                   "defactorize", "defining_matrices",
                   "factorization_triple_ring", "factorize", "membership",
                   "pair_from_json", "point_from_json", "rho_s11",
                   "s11_chart_ring", "sigma_su", "sl11_generic_ring",
                   "su11_chart_ring"),
    "harmonic": ("ExpansionResult", "Section", "expand",
                 "matrix_coefficients", "reconstruct", "section_from_json"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
