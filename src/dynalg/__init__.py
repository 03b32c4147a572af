"""Finite multivariable dynamical systems, their conjugacy notions, and
the symbolic and matrix models of their associated operator algebras."""

__version__ = "0.1.0"

from .conjugacy import (
    ConjugacyWitness,
    IncompatibleSystemsError,
    MalformedWitnessError,
    PartitionWitness,
    PiecewiseWitness,
    WitnessReport,
    decide_conjugate,
    decide_partition,
    decide_piecewise,
    verify_partition_witness,
)
from .dynsys import (
    EdgeColoredGraph,
    FiniteSystem,
    SubSystem,
    colored_graph,
    equivalence_classes,
    evaluate_word,
    full_subsystem,
    map_range,
    ranges_pairwise_disjoint,
    restrict,
)
from .freeprod import (
    BallMobius,
    FPPoly,
    LiftDualReport,
    NCSeries,
    PolyballAuto,
    PolyballPoint,
    U1nMatrix,
    abelianize,
    eval_character,
    fp_multiply,
    frac_linear,
    kernel_eval,
    lift_dual_check,
    mobius_apply,
    mobius_to_u1n,
    permutation_lift,
    polyball_auto_apply,
    sample_ball_points,
    voiculescu_lift,
)
from .quotient import (
    FreeEdgePoly,
    QuotientMatrix,
    entry_signature,
    local_signature,
    local_signatures,
    quotient_map,
    signatures_equivalent,
)
from .reps import (
    CKFamily,
    CKReport,
    NestRep,
    build_colour_rep,
    build_truncated_fock,
    check_ck_relations,
    decide_tensor_vs_semicrossed,
    nest_rep_exists,
    rep_apply,
    row_norm,
)
from .scalars import ONE, ZERO, RationalComplex, qc
from .semicrossed import (
    CovariantHom,
    FunctionCoeff,
    SemicrossedElement,
    apply_hom,
    covariance_defects,
    gauge,
    identity_hom,
    partition_isomorphism,
    pullback,
    sc_multiply,
)
from .wordpoly import cesaro_mean, fourier_component
