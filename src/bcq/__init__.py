"""BC-type multivariable q-orthogonal polynomials.

Koornwinder polynomials with their q-difference operator and full
orthogonality measure, big and little q-Jacobi polynomials with exact
moment inner products and closed-form normalization constants, the limit
transitions between the families, and the quantum-Grassmannian algebraic
layer (R-matrix, reflection equations, q-exterior intertwiners, branching
and the Gelfand property).
"""

from .awmeasure import (
    DegenerateParameterError,
    QuadratureGrid,
    full_inner,
    gustafson_constant,
    norm_K,
    residue_weight,
    w2_value,
)
from .koornwinder import (
    EigenvalueCollisionError,
    KoornwinderParams,
    check_symmetries,
    dk_apply,
    dk_evaluate,
    eigenvalue,
    koornwinder_poly,
)
from .limits import (
    EpsilonSweep,
    grassmann_big_params,
    grassmann_koornwinder_params,
    grassmann_little_params,
    limit_check_big,
    limit_check_little,
    norm_limit_check,
    q_to_1_check,
    selberg_classical,
    t_B,
    t_L,
)
from .polyring import (
    LaurentPoly,
    expand_in_basis,
    monomial_symmetric,
    orbit_sum_W,
    schur,
    to_generator_coords,
)
from .qgrass import (
    QExtVector,
    branching_coeffs,
    casimir_eigenvalue,
    gelfand_check,
    intertwiner_check,
    j_infty,
    j_sigma,
    j_tilde_sigma,
    psi_hat_r,
    qybe_check,
    r_matrix,
    reflection_check,
    refalt_check,
    spherical_multiplicity,
    theta_constant_check,
    theta_hat_r,
)
from .qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    SumTruncation,
    big_inner,
    big_jacobi_poly,
    closed_form_big_constant,
    closed_form_little_constant,
    little_inner,
    little_jacobi_poly,
    norm_big,
    norm_little,
)
from .qseries import (
    INFINITY,
    NonConvergenceError,
    qgamma,
    qpochhammer,
)
from .report import VerificationReport
from .weights import (
    GrassmannShape,
    WeightVector,
    dominance_leq,
    dominant_downset,
    flat_map,
    fundamental_spherical,
    is_spherical,
    natural_map,
    weyl_orbit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
