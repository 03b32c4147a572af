"""Finite multivariable dynamical systems, their conjugacy notions, and
the symbolic and matrix models of their associated operator algebras.

Importing the package loads none of its modules: each exported name, and
each submodule reached as an attribute (``dynalg.reps``), is imported on
first access, so a caller pays only for the layers it uses; numpy comes
in with ``freeprod`` and ``reps`` alone.
"""

__version__ = "0.1.0"

# The exported names, by the module that defines them.
_EXPORTS = {
    "conjugacy": (
        "ConjugacyWitness",
        "IncompatibleSystemsError",
        "MalformedWitnessError",
        "PartitionWitness",
        "PiecewiseWitness",
        "WitnessReport",
        "decide_conjugate",
        "decide_partition",
        "decide_piecewise",
        "verify_partition_witness",
    ),
    "dynsys": (
        "EdgeColoredGraph",
        "FiniteSystem",
        "SubSystem",
        "colored_graph",
        "equivalence_classes",
        "evaluate_word",
        "full_subsystem",
        "map_range",
        "ranges_pairwise_disjoint",
        "restrict",
    ),
    "freeprod": (
        "BallMobius",
        "FPPoly",
        "LiftDualReport",
        "NCSeries",
        "PolyballAuto",
        "PolyballPoint",
        "U1nMatrix",
        "abelianize",
        "eval_character",
        "fp_multiply",
        "frac_linear",
        "kernel_eval",
        "lift_dual_check",
        "mobius_apply",
        "mobius_to_u1n",
        "permutation_lift",
        "polyball_auto_apply",
        "sample_ball_points",
        "voiculescu_lift",
    ),
    "quotient": (
        "FreeEdgePoly",
        "QuotientMatrix",
        "entry_signature",
        "local_signature",
        "local_signatures",
        "quotient_map",
        "signatures_equivalent",
    ),
    "reps": (
        "CKFamily",
        "CKReport",
        "NestRep",
        "build_colour_rep",
        "build_truncated_fock",
        "check_ck_relations",
        "decide_tensor_vs_semicrossed",
        "nest_rep_exists",
        "rep_apply",
        "row_norm",
    ),
    "scalars": ("ONE", "ZERO", "RationalComplex", "qc"),
    "semicrossed": (
        "CovariantHom",
        "FunctionCoeff",
        "SemicrossedElement",
        "apply_hom",
        "covariance_defects",
        "gauge",
        "identity_hom",
        "partition_isomorphism",
        "pullback",
        "sc_multiply",
    ),
    "wordpoly": ("cesaro_mean", "fourier_component"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "fixtures", "matching")

__all__ = list(_HOME)


def _submodule(name: str):
    # The import statement's own path, which -X importtime lists (importlib's
    # does not); it binds the submodule here, so later lookups skip this hook.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
