"""The four filter-transformed families built from one wavelet basis.

Spectra, with psi_jk(x)^ = 2^{-j/2} e^{-i 2^{-j} k x} psi^(2^{-j} x):

    primal wavelet          h2(x)            * psi_jk^(x)
    dual wavelet            conj(1 / h2(x))  * psi_jk^(x)
    primal approximation    h1(x)            * phi_jk^(x)
    dual approximation      conj(1 / h1(x))  * phi_jk^(x)

A FamilyBuilder owns one (wavelet, filter pair, grid). Every spectrum it
gives, the generators (k = 0) per (j, side, role) and the level spectra
H(2^j y) w(y) (whose inverse transforms are the level profiles g_j), is
a mother w = psi^ or phi^ on a y-grid with x = 2^j y times a filter
(_spectrum); the builder evaluates each w once per (role, grid), and not
at all on a grid whose points a cached wider grid of the same dx holds.
k-translates are pure phases. The checks of riesz and vaguelet take a
builder, never a loose wavelet or pair, and read each spectrum only on
its mother's band.

Both filters must be hermitian, h(-x) = conj h(x), as every built-in is:
with the real mothers every family member is then real in time, its
spectrum hermitian, and every spectrum is evaluated and stored on the
half grid x >= 0 alone (grids).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import FilterEvalError, FilterPair, hermitian_defect
from .grids import (FourierGrid, SampledSpectrum, default_grid, l2_norm,
                    make_grid)
from .mra import WaveletSpec

SIDES = ("primal", "dual")
ROLES = ("wavelet", "approximation")
FILL_BLOCK = 2**13  # grid points per block of a mother fill
# a hermitian filter's relative mirror defect is roundoff
HERMITIAN_TOL = 1e-12


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
              band: int, j: int, side: str, role: str, grid: FourierGrid,
              scale: float):
    """scale * w(y) * H(2^j y)^{+-1} on the y-grid: (values, log_scale).

    mother is w = psi^ or phi^ by role on the band of grid (a prefix of
    its half grid) outside which w is 0; H is h2 or h1 by role, inverted
    and conjugated on the dual side. The k = 0 member spectrum at x = 2^j y is this with scale
    2^{-j/2}, the level profile's scale 1. Grid points scaled by 2^{+-j}
    are exact in floating point, so every caller sees the same values at
    the same x.

    Where w vanishes the value is 0 and H is never evaluated. A pole of H
    at y = 0 is absorbed (limiting value 0) when the vanishing order of w
    there exceeds |d|, and refused otherwise. A w nonzero on its whole band
    (Daubechies) is read on slices, one with zeros inside its band (Meyer
    psi^ around 0) through a mask of its nonzero values; each value is the
    same product either way.
    """
    h, zero_order = ((pair.h2, wavelet.n_moments) if role == "wavelet"
                     else (pair.h1, 0.0))
    power = 1 if side == "primal" else -1
    out = np.zeros(grid.size, dtype=complex)
    base = scale * mother
    whole = base.all()
    index = slice(0, band)
    if not whole:
        mask = base != 0.0
        if not np.any(mask):
            return out, 0.0
        index, base = np.flatnonzero(mask), base[mask]
    x = grid.points(index)
    x *= 2.0**j
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
    if whole:
        np.multiply(base, vals, out=out[:band])
    else:
        out[index] = base * vals
    return out, float(log_scale)


def require_hermitian(pair: FilterPair) -> None:
    """Refuse a pair with a filter whose relative mirror defect
    (filters.hermitian_defect) is not below HERMITIAN_TOL."""
    for name, h in (("h1", pair.h1), ("h2", pair.h2)):
        if not hermitian_defect(h) <= HERMITIAN_TOL:
            raise FamilyError(f"{name} = {h.config()} is not hermitian, "
                              "h(-x) != conj h(x): its family is not real")


class FamilyBuilder:
    """Builds family members and level spectra over one wavelet, filter
    pair and grid.

    Mother spectra are cached per (role, grid), read only, stored on the
    index band outside which they are exactly 0, and filled in one
    shared-factor pass per batch (fill, generators; a single request is a
    batch of one) or read from a wider cached grid of the same dx;
    generators and level spectra (on any grid) are fresh arrays, the
    mother times a filter evaluated on every call.
    Members are immutable.
    """

    def __init__(self, wavelet: WaveletSpec, pair: FilterPair,
                 grid: FourierGrid | None = None):
        require_hermitian(pair)
        self.wavelet = wavelet
        self.pair = pair
        self.grid = grid if grid is not None else default_grid()
        self._mothers: dict = {}  # (role, grid) -> values on the band
        self._bands: dict = {}  # (role, grid) -> length of the band

    def config(self) -> dict:
        return {
            "wavelet": self.wavelet.config(),
            "filters": self.pair.config(),
            "grid": {"x_max": self.grid.x_max, "n": self.grid.n},
        }

    def _y_grid(self, j: int) -> FourierGrid:
        return make_grid(self.grid.x_max * 2.0**-j, self.grid.n)

    def _fill(self, requests) -> None:
        """Evaluate the uncached mothers of the (role, grid) requests in one
        pass over shared product factors.

        Grids of one n whose x_max differ by powers of two form a chain:
        level l's points are the widest grid's divided by 2^l, exactly.
        psi^ on level l is formed from phi^ on level l + 1, and phi^ of
        every level needed comes from one multi-level product, evaluated
        in blocks of FILL_BLOCK points that are written into the mothers.
        For Daubechies a point x of the widest grid takes the product
        factors of exponents up to about log2 |x| + 4 directly, once for
        all levels, and each level's deeper factors as one closed-form
        tail (mra.daubechies_phi_hat_levels); that split is made point by
        point, so a value does not depend on the block it falls in, and
        the blocks' monotone x keep the points of one split contiguous.
        phi^ on level l is evaluated only on its band, the points x >= 0
        of |y| < R on that level's grid (R = phi_support_radius; the whole
        half grid for Daubechies), and each mother is stored on the band
        of the phi^ it is read from; levels with the same band share one
        product. Only the requested mothers are kept; a phi^ needed only
        for a psi^ lives for one block.

        A request whose grid's points a cached mother's grid holds (same
        dx, more points, as the (2 x_max, 2n) grid holds the base grid) is
        a view of that mother (_slice_wider), with no product pass.
        """
        chains: dict = {}
        for role, grid in dict.fromkeys(requests):
            if (role, grid) in self._mothers or self._slice_wider(role, grid):
                continue
            mantissa = math.frexp(grid.x_max)[0]
            chains.setdefault((grid.n, mantissa), []).append((role, grid))
        for chain in chains.values():
            top = max((grid for _, grid in chain), key=lambda g: g.x_max)
            # the phi^ level each mother reads: its own, or the next for psi^
            level_of = {(role, grid): int(math.log2(top.x_max / grid.x_max))
                        + (role == "wavelet") for role, grid in chain}
            x = top.x
            bands = {level: int(np.searchsorted(
                x, 2.0**level * self.wavelet.phi_support_radius))
                for level in set(level_of.values())}
            mothers = {key: np.empty(bands[level], dtype=complex)
                       for key, level in level_of.items()}
            for start in range(0, max(bands.values()), FILL_BLOCK):
                shared: dict = {}
                for level, band in bands.items():
                    hi = min(start + FILL_BLOCK, band)
                    if start < hi:
                        shared.setdefault(hi, []).append(level)
                phi = {}
                for hi, levels in shared.items():
                    phi.update((level, (hi, values)) for level, values in
                               zip(levels, self.wavelet.phi_hat_levels(
                                   x[start:hi], levels)))
                for (role, grid), level in level_of.items():
                    if level not in phi:
                        continue
                    # phi^, or psi^ formed from it, at the indices start..hi
                    hi, values = phi[level]
                    mothers[role, grid][start:hi] = (
                        values if role == "approximation"
                        else self.wavelet.psi_hat(x[start:hi]
                                                  / 2.0**(level - 1), values))
            while mothers:
                # keep a copy made last: the array it was filled in is
                # then freed under the long-lived mother, and the spectra
                # built next reuse that memory instead of faulting in
                # fresh pages (Meyer synthesis: 53k -> 31k page faults)
                key, mother = mothers.popitem()
                mother = mother.copy()
                mother.flags.writeable = False
                self._mothers[key] = mother
                self._bands[key] = bands[level_of[key]]

    def _slice_wider(self, role: str, grid: FourierGrid) -> bool:
        """Serve the (role, grid) mother from a view of one cached on a grid
        of the same dx and more points, if there is one: that grid holds
        grid's points x_m = m dx at the same indices bit for bit, and a
        mother's value depends on its point alone. The band is the cached
        band's prefix that grid holds."""
        for (cached_role, wide), mother in self._mothers.items():
            if cached_role == role and wide.dx == grid.dx and wide.n > grid.n:
                break
        else:
            return False
        band = min(self._bands[role, wide], grid.size)
        self._mothers[role, grid] = mother[:band]
        self._bands[role, grid] = band
        return True

    def _evaluate(self, j, side, role, grid, scale):
        key = (role, grid)
        self._fill([key])
        return _spectrum(self.wavelet, self.pair, self._mothers[key],
                         self._bands[key], j, side, role, grid, scale)

    def fill(self, keys) -> None:
        """Fill the missing mothers of the generator keys (j, side, role) in
        one pass, so that the generators asked for later share its product
        factors; no spectrum is formed."""
        self._fill((role, self._y_grid(j)) for j, _, role in keys)

    def generators(self, keys) -> dict:
        """{(j, side, role): (values, log_scale)} for each distinct key of
        keys, every missing mother filled in one pass first."""
        keys = list(dict.fromkeys(keys))
        self.fill(keys)
        return {key: self.generator(*key) for key in keys}

    def generator(self, j: int, side: str, role: str):
        """(values, log_scale) of the k = 0 member of (j, side, role)."""
        return self._evaluate(j, side, role, self._y_grid(j),
                              2.0 ** (-j / 2.0))

    def band(self, j: int, role: str) -> int:
        """The band of the build grid outside which every (j, side, role)
        generator is 0: its mother's band on the y-grid."""
        key = (role, self._y_grid(j))
        self._fill([key])
        return self._bands[key]

    def build_member(self, idx: FamilyIndex) -> FamilyMember:
        vals, log_scale = self.generator(idx.j, idx.side, idx.role)
        if idx.k != 0:  # vals is a fresh array
            vals *= np.exp(-1j * 2.0 ** (-idx.j) * idx.k * self.grid.x)
        return FamilyMember(idx, SampledSpectrum(self.grid, vals), log_scale)

    def level_spectrum(self, j: int, side: str, role: str,
                       grid: FourierGrid | None = None):
        """(spectrum, log_scale) of the level profile g_j on the base
        y-grid, or on grid: H(2^j y) w(y), with the side/role filter H and
        mother spectrum w, is spectrum * e^{log_scale}, for any integer j
        (negative included). Its inverse transform is g_j, with
        member(j,k)(t) = 2^{j/2} g_j(2^j t - k) and the l2 norm of g_j equal
        to the scaled member norm; a grid wider at the same dy samples tau
        more finely. The spectrum carries its mother's band."""
        grid = grid if grid is not None else self.grid
        vals, log_scale = self._evaluate(j, side, role, grid, 1.0)
        return SampledSpectrum(grid, vals, self._bands[role, grid]), log_scale
