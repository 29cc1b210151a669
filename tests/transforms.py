"""Test-only transforms: the forward FFT transform that inverts
grids.inverse_transform, and a member's time samples with the
grid-edge aliasing warning."""

import warnings

import numpy as np

from vaguelab.family import FamilyMember
from vaguelab.grids import (FourierGrid, GridError, SampledSpectrum,
                            TimeSeries, inverse_transform)


def forward_transform(series: TimeSeries, grid: FourierGrid) -> SampledSpectrum:
    """Inverse of grids.inverse_transform on matching grids."""
    if len(series.values) != grid.n or not np.isclose(series.dt, grid.dt):
        raise GridError("time series does not match the grid's conjugate sampling")
    summed = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(series.values)))
    return SampledSpectrum(grid, grid.dt * summed)


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
