"""Test-only full-grid transforms: time samples on the conjugate grid, the
inverse and forward FFT transforms between them, a spectrum's Hermitian
defect, and a member's time samples with the grid-edge aliasing warning.
The package itself reads samples of the inverse transform with
grids.inverse_transform_at."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from vaguelab.family import FamilyMember
from vaguelab.grids import FourierGrid, GridError, SampledSpectrum


@dataclass(frozen=True)
class TimeSeries:
    """Complex samples f(t0 + l dt), l = 0..n-1."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.dt > 0):
            raise GridError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))


def inverse_transform(f: SampledSpectrum) -> TimeSeries:
    """Sample f(t) = (2 pi)^{-1} integral e^{itx} F(x) dx on the conjugate
    grid t0 + l dt, t0 = -n dt / 2: e^{i t_l x_m} = (-1)^{l+m}
    e^{2 pi i l m / n}, and the sign flips are the half-length rotations
    fftshift/ifftshift."""
    grid = f.grid
    summed = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(f.values)))
    # n dx / (2 pi) = 1 / dt turns ifft's 1/n into the quadrature weight
    return TimeSeries(grid.t0, grid.dt, summed / grid.dt)


def forward_transform(series: TimeSeries, grid: FourierGrid) -> SampledSpectrum:
    """Inverse of inverse_transform on matching grids."""
    if len(series.values) != grid.n or not np.isclose(series.dt, grid.dt):
        raise GridError("time series does not match the grid's conjugate sampling")
    summed = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(series.values)))
    return SampledSpectrum(grid, grid.dt * summed)


def hermitian_defect(f: SampledSpectrum) -> float:
    """Max |F(-x) - conj(F(x))| over grid points, relative to max |F|."""
    v = f.values
    mirrored = np.roll(v[::-1], 1)  # index m -> value at -x_m
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(mirrored - np.conj(v))) / scale)


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
