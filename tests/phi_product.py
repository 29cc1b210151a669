"""Test-only reference for mra.daubechies_phi_hat_levels: the direct
product, every factor u_hat(x / 2^m) / sqrt 2 evaluated at every point, and
the count of the factors the closed-form tail leaves direct."""

import numpy as np

from vaguelab.mra import SQRT2, _trig_poly, daubechies_coefficients


def direct_phi_hat_levels(n_moments, x, levels, depth=40):
    """[phi_hat(x / 2^l) for l in levels], each prod_{k=1..depth}
    u_hat(x / 2^{l+k}) / sqrt 2 from ones in ascending k, every factor
    evaluated once and multiplied into each product that contains it."""
    x = np.asarray(x, dtype=float)
    levels = list(levels)
    h = daubechies_coefficients(n_moments) / SQRT2
    out = [np.ones(x.shape, dtype=complex) for _ in levels]
    for m in range(min(levels) + 1, max(levels) + depth + 1):
        factor = _trig_poly(h, x / 2.0**m)
        for level, product in zip(levels, out):
            if level < m <= level + depth:
                product *= factor
    return out


def direct_factor_count(x, m_max):
    """Factor evaluations of one product pass over exponents m = 1..m_max:
    a point x is evaluated directly for m <= max(e + 4, 0), e the exponent
    of x from np.frexp (and for no m at x = 0), once per (point, m)."""
    x = np.asarray(x, dtype=float)
    exponents = np.maximum(np.frexp(x)[1] + 4, 0)
    exponents[x == 0.0] = 0
    return int(np.minimum(exponents, m_max).sum())
