"""Orthogonal polynomials on the quaternionic unit sphere.

Verblunsky coefficients of q-positive measures, the Schur algorithm over
2x2 matrix series, quaternionic Szego recurrences, companion-matrix zero
sets, the diagonal Christoffel-Darboux identity, and the entropy and
Baxter summability diagnostics.
"""

__version__ = "0.1.0"

from .quaternions import Quaternion, SliceFrame, chi, chi_inv, chi_mat
from .measures import (
    AtomicQMeasure, MomentSequence, QPositiveDensity, density_in_frame,
    is_nontrivial, matrix_moments, moments_from_atoms, moments_from_density,
    require_nontrivial, toeplitz, wiener_coefficient_norm,
)
from .series import TruncSeries, herglotz_from_moments, herglotz_from_schur, \
    schur_from_herglotz
from .matrix_opuc import (
    MatVerblunskySeq, alphas_from_moments, defects, moments_from_alphas,
    schur_algorithm, schur_coeffs_forward, schur_step,
)
from .polynomials import (
    OrthonormalFamily, QPolyL, QPolyR, SzegoState, VerblunskyExtraction,
    VerblunskySeq, eval_L, eval_R, eval_norm_sq, inner_L, inner_R,
    moments_from_verblunsky_q, orthonormal_polys, poly_from_json, reverse_L,
    reverse_R, star_mul_L, star_mul_R,
    szego_advance, szego_family, verblunsky_from_moments_q,
)
from .zeros import ZeroReport, companion_left, companion_right, det_poly, \
    roots, zero_slice, zeros_theorem_check
from .analysis import (
    BaxterReport, SummabilityReport, SVReport, baxter_check,
    cd_identity_check, cd_kernel_diag, square_summability_report, sv_check,
    szego_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
