"""Exact arithmetic and polynomial algebra substrate.

Re-exports the working set: rationals/matrices, univariate polynomials with
resultants and squarefree machinery, ternary homogeneous forms with
projective substitution, bivariate germs, and the elimination layer
(resultants of quadrics, good-position intersections, singular-locus search).
"""

from .rationals import (
    Mat3,
    bareiss_det_int,
    det_fractions,
    integer_image,
    mat3,
    mat3_adjugate,
    mat3_det,
    mat3_identity,
    mat3_mul,
    mat3_transpose,
    mat3_vec,
    nullspace,
    pack,
    primitive_part,
    rank,
    rational_from_string,
    rational_to_string,
    unpack,
)
from .unipoly import (
    UnivariatePoly,
    factor_over_q,
    integer_nodes,
    interpolate,
    poly_gcd,
    rational_roots,
    resultant,
    squarefree_part,
    yun_decomposition,
)
from .forms import HomogeneousForm, ProjectivePoint, euler_combination, hessian, jacobian
from .bipoly import BivariatePoly, resultant_y
from .elim import (
    FiberData,
    IntersectionData,
    discriminant_along_pencil,
    form_factorization,
    is_reduced_form,
    macaulay_resultant_quadrics,
    plane_intersection,
    rational_singular_points,
    ternary_discriminant,
    unimodular_matrices,
)
