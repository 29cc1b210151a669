"""Test-only reference for procsim._level_terms: the per-time evaluator,
one complex exponential row, one product row and one FFT row per time."""

import math

import numpy as np

from vaguelab.grids import fold_periods
from vaguelab.procsim import TermOverflowError


def per_time_level_terms(builder, j, side, role, ks, times):
    """(k x t) block of terms 2^{j/2} g_j(2^j t - k) with s = 2^j t kept
    whole: A[s, r] = sum_q e^{2 pi i sq} G[q, r] and the r-phase
    e^{2 pi i sr/P} are formed for every time, and term (k, t) is
    Re FFT_r[k mod P] of row t."""
    grid = builder.grid
    spectrum, log_scale = builder.level_spectrum(j, side, role)
    try:
        scale = math.exp(log_scale)
    except OverflowError:
        raise TermOverflowError(j, side, role, log_scale) from None
    folded = fold_periods(grid, spectrum.values)
    period = folded.shape[1]
    blocks = np.flatnonzero(np.any(folded != 0.0, axis=1))
    q = blocks - grid.n // (2 * period)
    s = 2.0**j * times
    summed = np.exp(2j * np.pi * (np.outer(s, q) % 1.0)) @ folded[blocks]
    summed *= np.exp(2j * np.pi * (np.outer(s, np.arange(period)) / period
                                   % 1.0))
    terms = np.fft.fft(summed, axis=1)[:, ks % period].real.T
    tau = s[None, :] - ks[:, None]
    terms[(tau < -period / 2) | (tau >= period / 2)] = 0.0
    return scale * 2.0 ** (j / 2.0) * grid.dx / (2.0 * np.pi) * terms
