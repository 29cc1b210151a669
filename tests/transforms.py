"""Test-only full-grid references: a half spectrum rebuilt on the full
grid by conjugate mirror, time samples on the conjugate grid, the inverse
and forward FFT transforms between them, the full-grid inner product and
2 pi period fold, a spectrum's Hermitian defect, and a member's time
samples with the grid-edge aliasing warning. The package itself reads
only the half grid x >= 0 (grids)."""

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


def full_x(grid: FourierGrid) -> np.ndarray:
    """The full grid x_m = (m - n/2) dx, m = 0..n-1."""
    return grid.dx * (np.arange(grid.n) - grid.n // 2)


def full_values(f: SampledSpectrum) -> np.ndarray:
    """f on the full grid (full_x): the half at x >= 0, its conjugate
    mirror at -x_max < x < 0, and at x = -x_max, which stands for +-x_max
    on the periodic grid, Re F(x_max), the Nyquist bin's 1/2 F + 1/2
    conj F."""
    n, half = f.grid.n, f.values
    out = np.empty(n, dtype=complex)
    out[n // 2:] = half[:-1]
    out[1:n // 2] = np.conjugate(half[n // 2 - 1:0:-1])
    out[0] = half[-1].real
    return out


def half_spectrum(grid: FourierGrid, full: np.ndarray) -> SampledSpectrum:
    """The half x >= 0 of a hermitian full-grid array (full_x): x_max is
    the periodic image of x = -x_max."""
    return SampledSpectrum(grid, np.append(full[grid.n // 2:], full[0]))


def inverse_transform(f: SampledSpectrum) -> TimeSeries:
    """Sample f(t) = (2 pi)^{-1} integral e^{itx} F(x) dx on the conjugate
    grid t0 + l dt, t0 = -n dt / 2, from the full-grid spectrum:
    e^{i t_l x_m} = (-1)^{l+m} e^{2 pi i l m / n}, and the sign flips are
    the half-length rotations fftshift/ifftshift."""
    grid = f.grid
    summed = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(full_values(f))))
    # n dx / (2 pi) = 1 / dt turns ifft's 1/n into the quadrature weight
    return TimeSeries(grid.t0, grid.dt, summed / grid.dt)


def transform_at(f: SampledSpectrum, q) -> np.ndarray:
    """f(q dt) for integers q read off inverse_transform, q modulo n."""
    n = f.grid.n
    return inverse_transform(f).values[(np.asarray(q) + n // 2) % n]


def forward_transform(series: TimeSeries, grid: FourierGrid) -> np.ndarray:
    """Inverse of inverse_transform on matching grids: the full-grid
    spectrum (full_x)."""
    if len(series.values) != grid.n or not np.isclose(series.dt, grid.dt):
        raise GridError("time series does not match the grid's conjugate sampling")
    return grid.dt * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(series.values)))


def inner_product(f: SampledSpectrum, g: SampledSpectrum) -> complex:
    """(2 pi)^{-1} sum over the full grid of F conj(G) dx."""
    return complex(np.sum(full_values(f) * np.conjugate(full_values(g)))
                   * f.grid.dx / (2.0 * np.pi))


def period_fold(f: SampledSpectrum) -> np.ndarray:
    """sum_k |F(x + 2 pi k)|^2 over the full grid at x = r dx, r =
    0..P-1, with P = 2 pi / dx samples per period; the grid must hold
    whole periods on each side of x = 0."""
    period = round(2.0 * np.pi / f.grid.dx)
    return np.sum(np.abs(full_values(f).reshape(-1, period)) ** 2, axis=0)


def hermitian_defect(full: np.ndarray) -> float:
    """Max |F(-x) - conj(F(x))| over a full-grid array (full_x),
    relative to max |F|."""
    mirrored = np.roll(full[::-1], 1)  # index m -> value at -x_m
    scale = np.max(np.abs(full))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(mirrored - np.conj(full))) / scale)


def time_samples(member: FamilyMember, edge_energy_tol: float = 1e-8) -> TimeSeries:
    """Inverse transform of the member's (scaled) spectrum.

    Warns when a non-negligible share of spectral energy sits within 1%
    of the grid edge, which signals time-domain aliasing.
    """
    grid = member.spectrum.grid
    v = member.spectrum.values
    total = float(np.sum(np.abs(v) ** 2))
    if total > 0.0:
        edge = grid.x >= 0.99 * grid.x_max
        share = float(np.sum(np.abs(v[edge]) ** 2)) / total
        if share > edge_energy_tol:
            warnings.warn(
                f"spectral energy share {share:.2e} within 1% of the grid "
                "edge; time samples may alias", RuntimeWarning)
    return inverse_transform(member.spectrum)
