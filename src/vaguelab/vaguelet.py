"""Numerical verification of the three vaguelet properties and the
synthesis inequality for a constructed family.

Statistics are computed in the rescaled time variable tau = 2^j t using
the level profiles g_j, with member_j(t) = 2^{j/2} g_j(2^j t); in these
coordinates both the decay and the Hoelder statistic of the normalized
member are exactly j-independent for self-similar (identity filter)
families, and boundedness across j is the vaguelet signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import FamilyBuilder
from .grids import SampledSpectrum, inverse_transform, make_grid
from .report import CheckResult


class VagueletParamError(ValueError):
    """Invalid exponent configuration."""


@dataclass(frozen=True)
class VagueletParams:
    alpha1: float = 0.9
    alpha2: float = 0.5
    j_min: int = 0
    j_max: int = 8
    t_window: float = 32.0

    def __post_init__(self):
        if not 0.0 < self.alpha2 < self.alpha1 < 1.0:
            raise VagueletParamError(
                f"need 0 < alpha2 < alpha1 < 1, got alpha1={self.alpha1}, "
                f"alpha2={self.alpha2}")
        if self.j_min > self.j_max or self.j_min < 0:
            raise VagueletParamError("invalid level range")
        if self.t_window <= 0:
            raise VagueletParamError("t_window must be positive")

    @property
    def j_range(self):
        return range(self.j_min, self.j_max + 1)

    def config(self) -> dict:
        return {"alpha1": self.alpha1, "alpha2": self.alpha2,
                "j_min": self.j_min, "j_max": self.j_max,
                "t_window": self.t_window}


def _profile(spectrum: SampledSpectrum, j: int, t_window: float):
    """g_j samples and tau axis in the window |tau| <= 2^j t_window, the
    tau spacing, and ||g_j||.

    g_j is the inverse transform of a level spectrum. Its L2 norm over tau
    equals the (scaled) member norm, so ratios of sup statistics to it are
    invariant under the internal rescaling used for overflow-prone filters.
    """
    series = inverse_transform(spectrum)
    tau = series.t
    vals = series.values
    norm = math.sqrt(float(np.sum(np.abs(vals) ** 2)) * series.dt)
    if norm <= 0.0:
        raise VagueletParamError(f"zero-norm level profile at j={j}")
    m = np.abs(tau) <= 2.0**j * t_window
    return tau[m], vals[m], tau[1] - tau[0], norm


def _holder_sup(g: np.ndarray, dtau: float, alpha2: float) -> float:
    """sup over graded pair separations of |g[i+m] - g[i]| / (m dtau)^alpha2.

    A separation is skipped when ceiling / (sep dtau)^alpha2 cannot beat
    the running best: |g(a) - g(b)| <= 2 max|g|, the relative margin
    covers the rounding of both sides (the absolute one subnormal
    values), and rounded division is monotone, so the result is
    bit-identical to the full scan.
    """
    peak = float(np.max(np.abs(g), initial=0.0))
    ceiling = 2.0 * (1.0 + 1e-12) * peak + np.finfo(float).tiny
    best = 0.0
    m = 1
    while m < len(g):
        step = max(m // 2, 1)
        for sep in (m, min(m + step, len(g) - 1)):
            scale = (sep * dtau) ** alpha2
            if not ceiling / scale <= best:
                osc = float(np.max(np.abs(g[sep:] - g[:-sep])))
                best = max(best, osc / scale)
            if sep >= len(g) - 1:
                break
        m *= 2
    return best


def _band(values) -> float:
    lo, hi = min(values), max(values)
    if lo <= 0.0:
        return math.inf
    return hi / lo


def _growth_trend(values, min_run: int = 4, factor: float = 4.0) -> bool:
    """True when the statistic grows monotonically across >= min_run
    consecutive levels with total growth above `factor`."""
    run_start = 0
    for i in range(1, len(values)):
        if values[i] <= values[i - 1]:
            run_start = i
        elif (i - run_start >= min_run - 1
              and values[i] > factor * values[run_start]):
            return True
    return False


def synthesis_bound(builder: FamilyBuilder, side: str, J: int = 4, K: int = 16,
                    trials: int = 200, seed: int = 0) -> CheckResult:
    """Rayleigh quotients R = ||sum d Psi||^2 / sum d^2 over random d.

    R = d^H G d / d^H d for the normalized-family Gram G, so max R over
    trials is bounded by the largest Gram eigenvalue; stability is probed
    by doubling K. Entries depend only on the generator pair and the lag,
    so the K section is the |k| <= K principal submatrix of the 2K one.
    """
    from .riesz import Truncation, gram

    def max_quotient(matrix, k_width):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k_width)))
        quotients = []
        for _ in range(trials):
            d = rng.standard_normal(len(matrix))
            quotients.append(float((d @ matrix @ d).real / (d @ d)))
        lam_max = float(np.linalg.eigvalsh(0.5 * (matrix
                                                  + matrix.conj().T))[-1])
        return max(quotients), lam_max

    g = gram(builder, side, Truncation(J, 2 * K, include_approximation=False))
    keep = [i for i, idx in enumerate(g.index_map) if abs(idx.k) <= K]
    r_base, lam_base = max_quotient(g.matrix[np.ix_(keep, keep)], K)
    r_double, lam_double = max_quotient(g.matrix, 2 * K)
    stable = r_double < 1.1 * max(r_base, 1e-300)
    return CheckResult(
        name="synthesis_bound",
        passed=r_base < 100.0 and stable,
        statistics={"max_R": r_base, "max_R_doubled_K": r_double,
                    "lambda_max": lam_base, "lambda_max_doubled_K": lam_double,
                    "side": side},
        params={**builder.config(), "J": J, "K": K, "trials": trials,
                "seed": seed},
    )


def vaguelet_suite(builder: FamilyBuilder, side: str,
                   params: VagueletParams = VagueletParams()) -> list:
    """The decay, mean and Hoelder checks of one side in one pass over the
    levels. Each level spectrum G_j is evaluated on the base y-grid and on
    a grid twice as wide at the same dy, whose profile g_j samples tau
    twice as finely.

    decay_statistic: S_j = sup_tau |g_j(tau)| (1 + |tau|)^{1 + alpha1} /
    ||g_j||, i.e. sup_t |member_{j,0}(t)| (1 + |2^j t|)^{1+alpha1} 2^{-j/2}
    for the L2-normalized member.
    mean_check: max_j |G_j(0)| / sup |G_j|, the member's |Psi^(0)| / sup
    |Psi^| with every level's support resolved by the same y-grid.
    holder_statistic: H_j = sup |g_j(tau') - g_j(tau)| / (|tau' - tau|^alpha2
    ||g_j||), i.e. sup |member(t') - member(t)| 2^{-j(1/2+alpha2)} /
    |t'-t|^alpha2 after normalization, over sample pairs at graded
    separations (two per octave up to the window width). It is a lower
    bound of the continuum sup, trusted only if the finer sampling changes
    it by < 20%; else the verdict is inconclusive.
    """
    wide = make_grid(2.0 * builder.grid.x_max, 2 * builder.grid.n)
    decay, holder, holder_fine, means = [], [], [], []
    for j in params.j_range:
        spectrum = builder.level_spectrum(j, side, "wavelet")
        tau, g, dtau, norm = _profile(spectrum, j, params.t_window)
        decay.append(float(np.max(np.abs(g) * (1.0 + np.abs(tau))
                                  ** (1.0 + params.alpha1))) / norm)
        holder.append(_holder_sup(g, dtau, params.alpha2) / norm)
        vals = spectrum.values
        means.append(abs(vals[len(vals) // 2]) / float(np.max(np.abs(vals))))
        _, g, dtau, norm = _profile(
            builder.level_spectrum(j, side, "wavelet", wide), j,
            params.t_window)
        holder_fine.append(_holder_sup(g, dtau, params.alpha2) / norm)
    rel_changes = [abs(fine - coarse) / max(coarse, 1e-300)
                   for coarse, fine in zip(holder, holder_fine)]
    # the built-in max/min skip a NaN that is not first, so a non-finite
    # level statistic must be caught before any verdict reads them
    finite = all(map(math.isfinite, decay + holder + holder_fine
                     + rel_changes))
    worst_mean = max(means)

    config = {**builder.config(), **params.config()}
    decay_band = _band(decay)
    decay_growing = _growth_trend(decay)
    refinement_ok = max(rel_changes) < 0.20
    holder_band = _band(holder_fine)
    holder_growing = _growth_trend(holder_fine)
    return [
        CheckResult(
            name="decay_statistic",
            passed=(decay_band < 10.0 and not decay_growing
                    if finite else None),
            statistics={"per_j": decay, "band_ratio": decay_band,
                        "growth_trend": decay_growing, "side": side},
            params=config,
        ),
        CheckResult(
            name="mean_check",
            passed=(worst_mean < 1e-12
                    if all(map(math.isfinite, means)) else None),
            statistics={"max_scaled_value_at_zero": worst_mean,
                        "side": side},
            params={**builder.config(),
                    "j_range": [params.j_min, params.j_max]},
        ),
        CheckResult(
            name="holder_statistic",
            passed=(holder_band < 10.0 and not holder_growing
                    if refinement_ok and finite else None),
            statistics={"per_j": holder, "per_j_refined": holder_fine,
                        "max_refinement_change": max(rel_changes),
                        "band_ratio": holder_band,
                        "growth_trend": holder_growing, "side": side},
            params=config,
        ),
    ]
