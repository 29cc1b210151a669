"""Numerical verification of the three vaguelet properties and the
synthesis inequality for a constructed family.

Statistics are computed in the rescaled time variable tau = 2^j t using
the level profiles g_j, with member_j(t) = 2^{j/2} g_j(2^j t); in these
coordinates both the decay and the Hoelder statistic of the normalized
member are exactly j-independent for self-similar (identity filter)
families, and boundedness across j is the vaguelet signature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .family import FamilyBuilder
from .grids import (SampledSpectrum, _block_phases, inverse_transform_window,
                    l2_norm, make_grid)
from .report import CheckResult
from .riesz import Truncation, gram


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
        for name, value in (("j_min", self.j_min), ("j_max", self.j_max)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise VagueletParamError(
                    f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.alpha2 < self.alpha1 < 1.0:
            raise VagueletParamError(
                f"need 0 < alpha2 < alpha1 < 1, got alpha1={self.alpha1}, "
                f"alpha2={self.alpha2}")
        if self.j_min > self.j_max or self.j_min < 0:
            raise VagueletParamError("invalid level range")
        # NaN fails every comparison: test for the valid range
        if not 0.0 < self.t_window < math.inf:
            raise VagueletParamError(
                f"t_window must be positive and finite, got {self.t_window}")

    @property
    def j_range(self):
        return range(self.j_min, self.j_max + 1)

    def config(self) -> dict:
        return {"alpha1": self.alpha1, "alpha2": self.alpha2,
                "j_min": self.j_min, "j_max": self.j_max,
                "t_window": self.t_window}


def _profile(spectrum: SampledSpectrum, j: int, t_window: float):
    """Indices q in [-n/2, n/2) with |q dt| <= 2^j t_window, the real
    samples g_j(q dt) of the inverse transform of a level spectrum there,
    and ||g_j||, taken from the spectrum by Plancherel. It equals the
    (scaled) member norm, so ratios of sup statistics to it are invariant
    under the internal rescaling used for overflow-prone filters. The norm
    and the transform read only the spectrum's band.
    """
    grid = spectrum.grid
    norm = l2_norm(spectrum)
    if norm <= 0.0:
        raise VagueletParamError(f"zero-norm level profile at j={j}")
    # |q dt| rounds monotonically in |q|: the window is -a..a for the
    # largest a <= n/2 with a dt <= 2^j t_window, cut to the grid
    half, bound = grid.n // 2, 2.0**j * t_window
    a = int(min(bound / grid.dt, half))
    while a < half and (a + 1) * grid.dt <= bound:
        a += 1
    while a * grid.dt > bound:
        a -= 1
    q = np.arange(-a, min(a, half - 1) + 1)
    g = inverse_transform_window(spectrum, -a, len(q) - a)
    return q, g, norm


@functools.lru_cache(maxsize=1)
def _decay_weight(start: int, stop: int, dtau: float,
                  exponent: float) -> np.ndarray:
    """(1 + |q dtau|)^exponent at the even q of start..stop - 1. Read only:
    the levels whose window is the whole grid (j >= 4 by default) share
    one array, which vaguelet_suite frees."""
    q = np.arange(start + start % 2, stop, 2)
    weight = (1.0 + np.abs(q * dtau)) ** exponent
    weight.flags.writeable = False
    return weight


def _level_statistics(spectrum: SampledSpectrum, j: int,
                      params: VagueletParams) -> tuple:
    """(decay, Hoelder, refined Hoelder, mean) statistics of level j from
    its level spectrum on the wide grid, the first three all NaN unless
    all are finite. Each is a ratio, so the spectrum's scale
    e^{log_scale} drops out."""
    q, g, norm = _profile(spectrum, j, params.t_window)
    dtau = spectrum.grid.dt
    even = slice(q[0] % 2, None, 2)  # the builder grid's tau
    weight = _decay_weight(int(q[0]), int(q[-1]) + 1, dtau,
                           1.0 + params.alpha1)
    vals = spectrum.values
    stats = (float(np.max(np.abs(g[even]) * weight)) / norm,
             _holder_sup(g[even], 2 * dtau, params.alpha2) / norm,
             _holder_sup(g, dtau, params.alpha2) / norm)
    # the Hoelder scan's running max skips a NaN sample: a level with a
    # statistic that is not finite has none that can be trusted
    if not all(map(math.isfinite, stats)):
        stats = (math.nan,) * 3
    return (*stats, abs(vals[0])
            / float(np.max(np.abs(vals[:spectrum.band]))))


def _holder_sup(g: np.ndarray, dtau: float, alpha2: float) -> float:
    """sup over graded pair separations of |g[i+m] - g[i]| / (m dtau)^alpha2.

    A separation is skipped when ceiling / (sep dtau)^alpha2 cannot beat
    the running best: |g(a) - g(b)| <= 2 max|g|, the relative margin
    covers the rounding of both sides (the absolute one subnormal
    values), and rounded division is monotone. A separation that is
    evaluated reads first the pairs with an end in the core, the span
    where |g| > 2^-10 max|g|; every other pair is bounded by rest, the
    same bound over the samples outside the core, so the full window is
    read only when the core's max is below it. The result is
    bit-identical to the full scan.
    """
    margin = 2.0 * (1.0 + 1e-12)
    tiny = np.finfo(float).tiny
    mag = np.abs(g)
    peak = float(np.max(mag, initial=0.0))
    ceiling = margin * peak + tiny
    core = np.flatnonzero(mag > 2.0**-10 * peak)
    # no core (zero, NaN or infinite peak): the core slice is the window
    c0, c1 = (int(core[0]), int(core[-1]) + 1) if len(core) else (0, len(g))
    rest = margin * float(np.maximum(np.max(mag[:c0], initial=0.0),
                                     np.max(mag[c1:], initial=0.0))) + tiny
    best = 0.0
    m = 1
    while m < len(g):
        step = max(m // 2, 1)
        for sep in (m, min(m + step, len(g) - 1)):
            scale = (sep * dtau) ** alpha2
            if not ceiling / scale <= best:
                lo, hi = max(c0 - sep, 0), min(c1 + sep, len(g))
                osc = float(np.max(np.abs(g[lo + sep:hi] - g[lo:hi - sep])))
                if not osc >= rest and hi - lo < len(g):
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
                    seed: int = 0) -> CheckResult:
    """Synthesis (Bessel) bound ||sum d Psi||^2 <= B sum |d|^2 of the K and
    2K sections, with stability probed by doubling K.

    B of a section is the largest eigenvalue of its normalized-family Gram
    G. Entries depend only on the generator pair and the lag, so the K
    section is the |k| <= K principal submatrix of the 2K one. report.RULES
    bounds B and, from K = 8 on, its rise when K doubles. seed is accepted
    and has no effect.
    """
    g = gram(builder, side, Truncation(J, 2 * K, include_approximation=False))
    keep = [i for i, idx in enumerate(g.index_map) if abs(idx.k) <= K]
    lam_base, lam_double = (float(np.linalg.eigvalsh(m)[-1]) for m in
                            (g.matrix[np.ix_(keep, keep)], g.matrix))
    return CheckResult(
        name="synthesis_bound",
        statistics={"lambda_max": lam_base, "lambda_max_doubled_K": lam_double,
                    "side": side},
        params={**builder.config(), "J": J, "K": K},
    )


def vaguelet_suite(builder: FamilyBuilder, side: str,
                   params: VagueletParams = VagueletParams()) -> list:
    """The decay, mean and Hoelder checks of one side in one pass over the
    levels. Each level spectrum G_j is evaluated once, on a y-grid twice
    as wide as the builder's at the same dy, and its profile g_j is read
    once, on the window |tau| <= 2^j t_window at half the builder grid's
    tau spacing: the even samples are the builder grid's tau.

    decay_statistic: S_j = sup_tau |g_j(tau)| (1 + |tau|)^{1 + alpha1} /
    ||g_j|| over the even samples, i.e. sup_t |member_{j,0}(t)|
    (1 + |2^j t|)^{1+alpha1} 2^{-j/2} for the L2-normalized member.
    mean_check: max_j |G_j(0)| / sup |G_j|, the member's |Psi^(0)| / sup
    |Psi^| with every level's support resolved by the same y-grid.
    holder_statistic: H_j = sup |g_j(tau') - g_j(tau)| / (|tau' - tau|^alpha2
    ||g_j||), i.e. sup |member(t') - member(t)| 2^{-j(1/2+alpha2)} /
    |t'-t|^alpha2 after normalization, over sample pairs at graded
    separations (two per octave up to the window width). per_j reads the
    even samples, per_j_refined every sample: a lower bound of the
    continuum sup, which report.RULES trusts only while the finer sampling
    changes it by at most 20 %.
    """
    wide = make_grid(2.0 * builder.grid.x_max, 2 * builder.grid.n)
    # one call per level: its arrays are freed before the next level's
    decay, holder, holder_fine, means = map(list, zip(*(
        _level_statistics(builder.level_spectrum(j, side, "wavelet", wide)[0],
                          j, params) for j in params.j_range)))
    # the band transform's phase table (1.05 MB on the Meyer wide grid) and
    # the decay weight are not kept past the suite; the next suite forms
    # them again, bit for bit
    _block_phases.cache_clear()
    _decay_weight.cache_clear()
    rel_changes = [abs(fine - coarse) / max(coarse, 1e-300)
                   for coarse, fine in zip(holder, holder_fine)]
    config = {**builder.config(), **params.config()}
    return [
        CheckResult(
            name="decay_statistic",
            statistics={"per_j": decay, "band_ratio": _band(decay),
                        "growth_trend": _growth_trend(decay), "side": side},
            params=config,
        ),
        CheckResult(
            name="mean_check",
            # np.max, unlike max, returns a NaN wherever it stands
            statistics={"max_scaled_value_at_zero": float(np.max(means)),
                        "side": side},
            params={**builder.config(),
                    "j_range": [params.j_min, params.j_max]},
        ),
        CheckResult(
            name="holder_statistic",
            statistics={"per_j": holder, "per_j_refined": holder_fine,
                        "max_refinement_change": max(rel_changes),
                        "band_ratio": _band(holder_fine),
                        "growth_trend": _growth_trend(holder_fine),
                        "side": side},
            params=config,
        ),
    ]
