"""Orthogonal polynomials on the quaternionic unit sphere.

Verblunsky coefficients of q-positive measures, the Schur algorithm over
2x2 matrix series, quaternionic Szego recurrences, companion-matrix zero
sets, the diagonal Christoffel-Darboux identity, and the entropy and
Baxter summability diagnostics.
"""

__version__ = "0.1.0"

from .quaternions import Quaternion, SliceFrame, chi, chi_inv, chi_mat
from .measures import (
    MomentSequence, QPositiveDensity, is_nontrivial, moments_from_density, require_nontrivial,
    toeplitz, wiener_coefficient_norm,
)
from .series import TruncSeries, herglotz_from_moments, herglotz_from_schur, \
    schur_from_herglotz
from .matrix_opuc import alphas_from_moments, defects, moments_from_alphas, schur_step
from .polynomials import (
    VerblunskySeq, eval_L, eval_R, eval_norm_sq, moments_from_verblunsky_q, orthonormal_polys,
    reversed_rows, verblunsky_from_moments_q,
)
from .zeros import det_poly, roots, zero_slice, zeros_theorem_check
from .analysis import baxter_check, cd_identity_check, sv_check, szego_entropy

__all__ = [name for name in dir() if not name.startswith("_")]
