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


def _profile_and_norm(builder: FamilyBuilder, j: int, side: str,
                      pad_factor: int = 1):
    """g_j samples, tau axis, and the profile's L2 norm over tau.

    The norm over tau equals the (scaled) member norm, so ratios of
    sup statistics to it are invariant under the internal rescaling
    used for overflow-prone filters.
    """
    series = builder.level_profile(j, side, "wavelet", pad_factor=pad_factor)
    tau = series.t
    vals = series.values
    norm = math.sqrt(float(np.sum(np.abs(vals) ** 2)) * series.dt)
    if norm <= 0.0:
        raise VagueletParamError(f"zero-norm level profile at j={j}")
    return tau, vals, norm


def _holder_sup(g: np.ndarray, dtau: float, alpha2: float) -> float:
    """sup over graded pair separations of |g[i+m] - g[i]| / (m dtau)^alpha2."""
    best = 0.0
    m = 1
    while m < len(g):
        step = max(m // 2, 1)
        for sep in (m, min(m + step, len(g) - 1)):
            osc = float(np.max(np.abs(g[sep:] - g[:-sep])))
            best = max(best, osc / (sep * dtau) ** alpha2)
            if sep >= len(g) - 1:
                break
        m *= 2
    return best


def _window_mask(tau: np.ndarray, j: int, t_window: float) -> np.ndarray:
    return np.abs(tau) <= 2.0**j * t_window


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


def decay_statistic(builder: FamilyBuilder, side: str,
                    params: VagueletParams = VagueletParams()) -> CheckResult:
    """S_j = sup_tau |g_j(tau)| (1 + |tau|)^{1 + alpha1} / ||g_j||.

    Equals sup_t |member_{j,0}(t)| (1 + |2^j t|)^{1+alpha1} 2^{-j/2} for
    the L2-normalized member.
    """
    per_j = []
    for j in params.j_range:
        tau, vals, norm = _profile_and_norm(builder, j, side)
        m = _window_mask(tau, j, params.t_window)
        s = float(np.max(np.abs(vals[m])
                         * (1.0 + np.abs(tau[m])) ** (1.0 + params.alpha1)))
        per_j.append(s / norm)
    band = _band(per_j)
    growing = _growth_trend(per_j)
    return CheckResult(
        name="decay_statistic",
        passed=band < 10.0 and not growing and math.isfinite(max(per_j)),
        statistics={"per_j": per_j, "band_ratio": band,
                    "growth_trend": growing, "side": side},
        params={**builder.config(), **params.config()},
    )


def mean_check(builder: FamilyBuilder, side: str,
               j_range=range(0, 9)) -> CheckResult:
    """max_j |Psi^ at x = 0| / sup |Psi^| for the wavelet generators.

    Spectra are sampled on 2^j-rescaled grids so every level's support is
    resolved regardless of the builder's base grid.
    """
    from .family import member_at_scale_rescaled
    worst = 0.0
    for j in j_range:
        member = member_at_scale_rescaled(builder.wavelet, builder.pair, j,
                                          side, "wavelet",
                                          base_grid=builder.grid)
        vals = member.spectrum.values
        grid = member.spectrum.grid
        zero_idx = int(np.argmin(np.abs(grid.x)))
        peak = float(np.max(np.abs(vals)))
        if peak == 0.0:
            raise VagueletParamError(f"empty spectrum at j={j}")
        worst = max(worst, abs(vals[zero_idx]) / peak)
    return CheckResult(
        name="mean_check",
        passed=worst < 1e-12,
        statistics={"max_scaled_value_at_zero": worst, "side": side},
        params={**builder.config(),
                "j_range": [min(j_range), max(j_range)]},
    )


def holder_statistic(builder: FamilyBuilder, side: str,
                     params: VagueletParams = VagueletParams()) -> CheckResult:
    """H_j = sup |g_j(tau') - g_j(tau)| / (|tau' - tau|^{alpha2} ||g_j||),
    which equals the member statistic
    sup |member(t') - member(t)| 2^{-j(1/2+alpha2)} / |t'-t|^{alpha2}
    after normalization.

    The sup runs over sample pairs at a graded set of separations (two per
    octave, from one sample up to the window width). It is a lower bound of
    the continuum sup and is trusted only if halving the sample spacing
    changes it by < 20%, else the verdict is inconclusive.
    """
    per_j, per_j_fine, rel_changes = [], [], []
    for j in params.j_range:
        values = []
        for pad in (1, 2):
            tau, vals, norm = _profile_and_norm(builder, j, side,
                                                pad_factor=pad)
            m = _window_mask(tau, j, params.t_window)
            g = vals[m]
            dtau = tau[1] - tau[0]
            values.append(_holder_sup(g, dtau, params.alpha2) / norm)
        coarse, fine = values
        per_j.append(coarse)
        per_j_fine.append(fine)
        rel_changes.append(abs(fine - coarse) / max(coarse, 1e-300))
    refinement_ok = max(rel_changes) < 0.20
    band = _band(per_j_fine)
    growing = _growth_trend(per_j_fine)
    passed = band < 10.0 and not growing
    return CheckResult(
        name="holder_statistic",
        passed=(passed if refinement_ok else None),
        statistics={"per_j": per_j, "per_j_refined": per_j_fine,
                    "max_refinement_change": max(rel_changes),
                    "band_ratio": band, "growth_trend": growing,
                    "side": side},
        params={**builder.config(), **params.config()},
    )


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
    return [
        decay_statistic(builder, side, params),
        mean_check(builder, side, params.j_range),
        holder_statistic(builder, side, params),
    ]
