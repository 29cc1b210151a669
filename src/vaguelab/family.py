"""The four filter-transformed families built from one wavelet basis.

Spectra, with psi_jk(x)^ = 2^{-j/2} e^{-i 2^{-j} k x} psi^(2^{-j} x):

    primal wavelet          h2(x)            * psi_jk^(x)
    dual wavelet            conj(1 / h2(x))  * psi_jk^(x)
    primal approximation    h1(x)            * phi_jk^(x)
    dual approximation      conj(1 / h1(x))  * phi_jk^(x)

A FamilyBuilder owns one (wavelet, filter pair, grid). Every spectrum it
gives, the generators (k = 0) per (j, side, role), the level spectra
H(2^j y) w(y) (whose inverse transforms are the level profiles g_j) and
the rescaled members, is a mother w = psi^ or phi^ on a y-grid with
x = 2^j y times a filter (_spectrum); the builder evaluates each w once
per (role, grid). k-translates are pure phases. The checks of this
module, riesz and vaguelet take a builder, never a loose wavelet or pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import FilterEvalError, FilterPair
from .grids import (FourierGrid, SampledSpectrum, TimeSeries, default_grid,
                    inverse_transform, l2_norm, make_grid)
from .mra import WaveletSpec
from .report import CheckResult

SIDES = ("primal", "dual")
ROLES = ("wavelet", "approximation")


class FamilyError(ValueError):
    """Invalid family index or non-constructable member."""


@dataclass(frozen=True)
class FamilyIndex:
    j: int
    k: int
    side: str
    role: str

    def __post_init__(self):
        if self.j < 0:
            raise FamilyError(f"family levels require j >= 0, got {self.j}")
        if self.side not in SIDES:
            raise FamilyError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.role not in ROLES:
            raise FamilyError(f"role must be one of {ROLES}, got {self.role!r}")


@dataclass(frozen=True)
class FamilyMember:
    """One family function, sampled in frequency.

    For filters with super-exponential growth the stored spectrum is
    rescaled by e^{-log_scale}; the true spectrum is spectrum * e^{log_scale}.
    Everywhere else log_scale is 0 and spectrum is the plain transform.
    """

    index: FamilyIndex
    spectrum: SampledSpectrum
    log_scale: float = 0.0

    @property
    def log_norm(self) -> float:
        scaled = l2_norm(self.spectrum)
        if scaled <= 0.0:
            raise FamilyError("member has zero norm")
        return math.log(scaled) + self.log_scale

    @property
    def norm(self) -> float:
        # may overflow to inf for extreme filters; log_norm stays finite
        try:
            return math.exp(self.log_norm)
        except OverflowError:
            return math.inf


def _spectrum(wavelet: WaveletSpec, pair: FilterPair, mother: np.ndarray,
              j: int, side: str, role: str, grid: FourierGrid, scale: float):
    """scale * w(y) * H(2^j y)^{+-1} on the y-grid: (values, log_scale).

    mother is w = psi^ or phi^ by role on grid; H is h2 or h1 by role,
    inverted and conjugated on the dual side. The k = 0 member spectrum at
    x = 2^j y is this with scale 2^{-j/2}, the level profile's scale 1.
    Grid points scaled by 2^{+-j} are exact in floating point, so every
    caller sees the same values at the same x.

    Where w vanishes the value is 0 and H is never evaluated. A pole of H
    at y = 0 is absorbed (limiting value 0) when the vanishing order of w
    there exceeds |d|, and refused otherwise.
    """
    h, zero_order = ((pair.h2, wavelet.n_moments) if role == "wavelet"
                     else (pair.h1, 0.0))
    base = scale * mother
    power = 1 if side == "primal" else -1
    out = np.zeros_like(base)
    mask = base != 0.0
    if not np.any(mask):
        return out, 0.0
    x = 2.0**j * grid.x[mask]
    at_zero = x == 0.0
    pole_at_zero = False
    if np.any(at_zero):
        try:
            h.eval(np.array([0.0]), power=power)
        except FilterEvalError:
            d = abs(h.d) if h.d is not None else math.inf
            if not zero_order > d:
                raise FamilyError(
                    "filter pole at x=0 where the base function does not "
                    f"vanish fast enough (order {zero_order}, |d|={d})"
                )
            warnings.warn(
                "filter pole at x=0 absorbed by vanishing moments; "
                "spectrum extended by its limiting value 0", RuntimeWarning)
            pole_at_zero = True
    xe = np.where(at_zero, 1.0, x) if pole_at_zero else x
    vals, log_scale = h.eval_scaled(xe, power=power)
    if pole_at_zero:
        vals = np.where(at_zero, 0.0, vals)
    if side == "dual":
        vals = np.conj(vals)
    out[mask] = base[mask] * vals
    return out, float(log_scale)


class FamilyBuilder:
    """Builds family members, level spectra and rescaled members over one
    wavelet, filter pair and grid.

    Mother spectra are cached per (role, grid), read only; generators,
    level spectra (on any grid) and rescaled members are fresh arrays, the
    mother times a filter evaluated on every call. Members are immutable.
    """

    def __init__(self, wavelet: WaveletSpec, pair: FilterPair,
                 grid: FourierGrid | None = None):
        self.wavelet = wavelet
        self.pair = pair
        self.grid = grid if grid is not None else default_grid()
        self._mothers: dict = {}

    def config(self) -> dict:
        return {
            "wavelet": self.wavelet.config(),
            "filters": self.pair.config(),
            "grid": {"x_max": self.grid.x_max, "n": self.grid.n},
        }

    def _evaluate(self, j, side, role, grid, scale):
        mother = self._mothers.get((role, grid))
        if mother is None:
            w = (self.wavelet.psi_hat if role == "wavelet"
                 else self.wavelet.phi_hat)
            mother = np.asarray(w(grid.x), dtype=complex)
            mother.flags.writeable = False
            self._mothers[role, grid] = mother
        return _spectrum(self.wavelet, self.pair, mother, j, side, role, grid,
                         scale)

    def generator(self, j: int, side: str, role: str):
        """(values, log_scale) of the k = 0 member of (j, side, role)."""
        y_grid = make_grid(self.grid.x_max * 2.0**-j, self.grid.n)
        return self._evaluate(j, side, role, y_grid, 2.0 ** (-j / 2.0))

    def build_member(self, idx: FamilyIndex) -> FamilyMember:
        vals, log_scale = self.generator(idx.j, idx.side, idx.role)
        if idx.k != 0:  # vals is a fresh array
            vals *= np.exp(-1j * 2.0 ** (-idx.j) * idx.k * self.grid.x)
        return FamilyMember(idx, SampledSpectrum(self.grid, vals), log_scale)

    def level_spectrum(self, j: int, side: str, role: str,
                       grid: FourierGrid | None = None) -> SampledSpectrum:
        """Spectrum of the level profile g_j on the base y-grid, or on grid:
        H(2^j y) w(y) with the side/role filter H and mother spectrum w,
        divided by e^{log_scale}, for any integer j (negative included).
        Its inverse transform is g_j, with member(j,k)(t) = 2^{j/2}
        g_j(2^j t - k) and the l2 norm of g_j equal to the scaled member
        norm; a grid wider at the same dy samples tau more finely."""
        grid = grid if grid is not None else self.grid
        vals, _ = self._evaluate(j, side, role, grid, 1.0)
        return SampledSpectrum(grid, vals)

    def rescaled_member(self, j: int, side: str, role: str) -> FamilyMember:
        """k = 0 member on a grid whose x_max is the base grid's times 2^j.

        Relative frequency resolution over the member's support is then
        j-independent, so norms stay accurate at large j. The spectrum is
        the base-grid mother in y = 2^{-j} x times the filter, relabelled.
        """
        if j > 30:
            raise FamilyError(f"j={j} exceeds the supported range (j <= 30)")
        idx = FamilyIndex(j, 0, side, role)
        vals, log_scale = self._evaluate(j, side, role, self.grid,
                                         2.0 ** (-j / 2.0))
        grid = make_grid(self.grid.x_max * 2.0**j, self.grid.n)
        return FamilyMember(idx, SampledSpectrum(grid, vals), log_scale)


def time_samples(member: FamilyMember, edge_energy_tol: float = 1e-8) -> TimeSeries:
    """Inverse transform of the member's (scaled) spectrum.

    Warns when a non-negligible share of spectral energy sits within 1%
    of the grid edge, which signals time-domain aliasing.
    """
    grid = member.spectrum.grid
    v = member.spectrum.values
    total = float(np.sum(np.abs(v) ** 2))
    if total > 0.0:
        edge = np.abs(grid.x) >= 0.99 * grid.x_max
        share = float(np.sum(np.abs(v[edge]) ** 2)) / total
        if share > edge_energy_tol:
            warnings.warn(
                f"spectral energy share {share:.2e} within 1% of the grid "
                "edge; time samples may alias", RuntimeWarning)
    return inverse_transform(member.spectrum)


def norm_band(builder: FamilyBuilder, j_range=range(0, 9)) -> CheckResult:
    """2^{jd}-compensated norms of primal/dual wavelet generators across j.

    r_j = ||primal_j|| 2^{jd} and r'_j = ||dual_j|| 2^{-jd} should each stay
    in a fixed band when |h2| is quasi-homogeneous with exponent d.
    """
    from .filters import quasi_homogeneity_check
    h2 = builder.pair.h2
    if h2.d is not None:
        d = h2.d
    else:
        d = quasi_homogeneity_check(h2).statistics.get("d_hat", 0.0)
    log2 = math.log(2.0)
    log_r, log_rp = [], []
    for j in j_range:
        primal = builder.rescaled_member(j, "primal", "wavelet")
        dual = builder.rescaled_member(j, "dual", "wavelet")
        log_r.append(primal.log_norm + j * d * log2)
        log_rp.append(dual.log_norm - j * d * log2)
    def _band(vals):
        spread = max(vals) - min(vals)
        try:
            return math.exp(spread)
        except OverflowError:
            return math.inf
    band_primal, band_dual = _band(log_r), _band(log_rp)
    return CheckResult(
        name="norm_band",
        passed=band_primal < 10.0 and band_dual < 10.0,
        statistics={
            "d": d,
            "log_r_primal": log_r,
            "log_r_dual": log_rp,
            "band_primal": band_primal,
            "band_dual": band_dual,
        },
        params={"wavelet": builder.wavelet.config(),
                "filters": builder.pair.config(),
                "j_range": [min(j_range), max(j_range)]},
    )
