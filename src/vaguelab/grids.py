"""Uniform frequency grids, Plancherel quadrature and FFT-consistent transforms.

Conventions used throughout the package:

    forward:  F(x) = integral e^{-i x t} f(t) dt
    inverse:  f(t) = (2 pi)^{-1} integral e^{i t x} F(x) dx
    inner product:  <f, g> = (2 pi)^{-1} integral F(x) conj(G(x)) dx

Grid invariant behind the transforms: x_m = (m - n/2) dx, m = 0..n-1,
and t = q dt for integer q, with dx = 2 x_max / n, dt = pi / x_max and
n a power of two >= 16, so x_max dt = pi and dx dt = 2 pi / n. Then
e^{i q dt x_m} = (-1)^q e^{2 pi i q m / n}: samples of the inverse
transform are a plain FFT with a sign flip and no chirp factors
(inverse_transform_at).

Each point is one rounding of an exact integer times dx, so the grid is
mirror-exact (x_{n-m} = -x_m bit for bit) and nested: the grid of 2n
points over 2 x_max holds it bit for bit at indices n/2..3n/2 - 1, and
the grid over x_max / 2^l is it divided by 2^l bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FourierGrid:
    """Symmetric uniform frequency grid x_m = (m - n/2) dx, m = 0..n-1.

    n is a power of two so the FFT-based transforms below apply directly;
    the grid always contains x = 0 (at index n // 2).
    """

    x_max: float
    n: int

    def __post_init__(self):
        if not (self.x_max > 0):
            raise GridError(f"x_max must be positive, got {self.x_max}")
        if not _is_power_of_two(self.n) or self.n < 16:
            raise GridError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.x_max / self.n

    @property
    def x(self) -> np.ndarray:
        return self.points(np.arange(self.n))

    def points(self, index) -> np.ndarray:
        """x_m = (m - n/2) dx at the integer indices m, each bit for bit as
        in x."""
        return self.dx * (np.asarray(index) - self.n // 2)

    @property
    def dt(self) -> float:
        # time-domain spacing of the FFT-conjugate grid
        return np.pi / self.x_max

    @property
    def t0(self) -> float:
        return -0.5 * self.n * self.dt

    @property
    def time_window(self) -> float:
        return self.n * self.dt


def make_grid(x_max: float, n: int) -> FourierGrid:
    return FourierGrid(float(x_max), int(n))


@dataclass(frozen=True)
class SampledSpectrum:
    """Complex samples of a Fourier transform on a FourierGrid."""

    grid: FourierGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n,):
            raise GridError(
                f"values must have length {self.grid.n}, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def hermitian_defect(self) -> float:
        """Max |F(-x) - conj(F(x))| over grid points, relative to max |F|."""
        v = self.values
        mirrored = np.roll(v[::-1], 1)  # index m -> value at -x_m
        scale = np.max(np.abs(v))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(mirrored - np.conj(v))) / scale)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermitian_defect() < tol


def _check_same_grid(f: SampledSpectrum, g: SampledSpectrum) -> None:
    if f.grid != g.grid:
        raise GridError("spectra live on different grids")


def inner_product(f: SampledSpectrum, g: SampledSpectrum) -> complex:
    """(2 pi)^{-1} integral F conj(G), periodic-trapezoid quadrature."""
    _check_same_grid(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.dx / TWO_PI)


def l2_norm(f: SampledSpectrum) -> float:
    sq = inner_product(f, f).real
    return float(np.sqrt(max(sq, 0.0)))


def inverse_transform_at(f: SampledSpectrum, q) -> np.ndarray:
    """f(q dt) for an integer array q, by one FFT of n / s points.

    e^{i q dt x_m} = (-1)^q e^{2 pi i q m / n}, so with s = gcd(n, every q)
    the phase repeats every n / s samples: F folds onto n / s points (a
    reshape-sum, as in fold_periods) and one FFT of that length gives
    f(q dt) = (dx / 2 pi) (-1)^q sum_c fold_c e^{2 pi i (q / s) c / (n / s)}.
    f is n dt periodic, so q is read modulo n.
    """
    grid = f.grid
    q = np.asarray(q)
    s = int(np.gcd.reduce(q, axis=None, initial=grid.n))
    # s = 1 needs no fold, and no copy of F
    folded = f.values if s == 1 else f.values.reshape(s, -1).sum(axis=0)
    sums = np.fft.ifft(folded, norm="forward")[q // s % (grid.n // s)]
    return np.where(q % 2, -1.0, 1.0) * (grid.dx / TWO_PI) * sums


def fold_periods(grid: FourierGrid, values: np.ndarray) -> np.ndarray:
    """values on grid as an (n / P, P) view, P = 2 pi / dx samples per period.

    Row q holds the period starting at x = 2 pi (q - n / 2P), so column r
    collects every sample at x = r dx mod 2 pi and a sum over rows is the
    2 pi-periodization. The grid must hold whole 2 pi periods on each
    side of x = 0.
    """
    period = round(TWO_PI / grid.dx)
    if not math.isclose(period * grid.dx, TWO_PI) or \
            (grid.n // 2) % period:
        raise GridError("the grid must hold whole 2 pi periods on each side "
                        "of x = 0")
    return np.asarray(values).reshape(-1, period)


DEFAULT_X_MAX = 64.0 * np.pi
DEFAULT_N = 2**16


def default_grid() -> FourierGrid:
    """Grid resolving Meyer supports up to level j = 4 without aliasing:
    the level-j member's spectrum reaches |x| = 2^j 8 pi / 3, which is
    <= x_max = 64 pi only for j <= 4."""
    return make_grid(DEFAULT_X_MAX, DEFAULT_N)
