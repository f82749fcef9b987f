"""Fixture library: the named densities shipped with the repository and
the seeded random Verblunsky coefficients of the CLI.
"""

from __future__ import annotations

import numpy as np

from .measures import QPositiveDensity
from .polynomials import VerblunskySeq
from .quaternions import SliceFrame


def lebesgue_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """Normalised arc length: w = 1, all Verblunsky coefficients zero."""
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), {0: 1.0})


def bernstein_szego_density(gamma0: float = 0.5, cutoff: int = 64,
                            frame: SliceFrame | None = None) -> QPositiveDensity:
    """(1 - g^2)/|1 - g e^{i theta}|^2 for real g, truncated at |n| <= cutoff.

    Moments are g^n for n >= 0; the single nonzero Verblunsky coefficient is
    gamma_0 = g.  Truncation error is geometric (g^cutoff).
    """
    if not 0 < gamma0 < 1:
        raise ValueError("gamma0 must lie in (0, 1)")
    w1 = {m: gamma0 ** abs(m) for m in range(-cutoff, cutoff + 1)}
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), w1)


def vanishing_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """w = 1 + cos(theta): vanishes at theta = pi, |gamma_n| = 1/(n+2).

    Square-summable but not summable coefficients; the Baxter diagnostic's
    nonsummable reference fixture.
    """
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(),
                                      {0: 1.0, 1: 0.5, -1: 0.5})


def smooth_trig_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """A strictly positive trigonometric density with a genuine j-part.

    Low Fourier degree and a comfortable positivity margin, so the
    Verblunsky coefficients decay geometrically and the entropy identity
    closes well before N = 50.
    """
    w1 = {0: 1.0, 1: 0.22 - 0.1j, -1: 0.22 + 0.1j, 2: 0.05 + 0.04j, -2: 0.05 - 0.04j}
    w2 = {1: 0.06 + 0.09j, -1: -0.06 - 0.09j, 2: 0.03 - 0.02j, -2: -0.03 + 0.02j}
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), w1, w2)


def random_gamma_seq(seed: int, n: int, rmax: float = 0.8) -> VerblunskySeq:
    """Seeded random coefficients, radii uniform in [0.05, rmax)."""
    rng = np.random.default_rng(seed)
    gammas = np.empty((n, 4))
    for k in range(n):
        v = rng.normal(size=4)
        v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
        gammas[k] = v
    return VerblunskySeq(gammas)
