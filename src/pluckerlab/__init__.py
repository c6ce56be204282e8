"""Exact-arithmetic toolkit for the total wedge form on tuples of exterior
vectors, Grassmannian cone membership by local divisor data, and determinant
divisors of split bundle pairs on the projective line."""

from .bundle_pairs_p1 import (
    BundlePairP1,
    DivisorReport,
    P1Point,
    classify_point,
    det_map_matrix,
    det_map_rank,
    diagonal_factor_check,
    divisor_value,
    has_plucker_form,
    is_balanced,
    lambda_image,
    make_pair,
    pair_from_json,
    pair_to_json,
    span_dimension,
    symbolic_diagonal_witness,
    two_point_surjectivity,
)
from .exterior import (
    ExteriorVector,
    MultiIndex,
    contract,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
    wedge_rank,
)
from .grassmann import (
    ClassifierVerdict,
    GrassPoint,
    Verdict,
    classify_membership,
    codim_threshold,
    ev_m_det,
    field_codim_threshold,
    mu_rank,
    plucker_embed,
    random_grass_point,
)
from .plucker_form import (
    PointTuple,
    diagonal_multiplicity,
    diagonal_tangent_codim,
    eval_form,
    expand_form,
    multiplicity_at,
    polar,
    tangent_codim,
)
from .scalars import (
    DEFAULT_PRIME,
    DenseMatrix,
    Fp,
    PrimeField,
    QQ,
    RationalField,
    mat_det,
    rank_mod_p,
)

__version__ = "0.1.0"
