"""The seeded random Verblunsky coefficients of the CLI's ``random-gamma``.

The named densities ship as JSON fixtures in ``fixtures/`` and are read by
``cli.load_fixture``.
"""

from __future__ import annotations

import numpy as np

from .polynomials import VerblunskySeq


def random_gamma_seq(seed: int, n: int, rmax: float = 0.8) -> VerblunskySeq:
    """Seeded random coefficients, radii uniform in [0.05, rmax)."""
    rng = np.random.default_rng(seed)
    gammas = np.empty((n, 4))
    for k in range(n):
        v = rng.normal(size=4)
        v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
        gammas[k] = v
    return VerblunskySeq(gammas)
