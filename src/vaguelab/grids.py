"""Uniform frequency grids, Plancherel quadrature and FFT-consistent transforms.

Conventions used throughout the package:

    forward:  F(x) = integral e^{-i x t} f(t) dt
    inverse:  f(t) = (2 pi)^{-1} integral e^{i t x} F(x) dx
    inner product:  <f, g> = (2 pi)^{-1} integral F(x) conj(G(x)) dx

Every function vaguelab samples is real in time, so its spectrum is
hermitian, F(-x) = conj F(x), and is stored on the half grid x_m = m dx,
m = 0..n/2, with dx = 2 x_max / n and n a power of two >= 16. The full
periodic grid of n points over [-x_max, x_max) is that half and its
conjugate mirror; the sample at x_max is the Nyquist bin, which stands
for +-x_max with weight 1/2 each. So a sum over the full grid is 2 Re of
the one-sided sum over the half with weight 1/2 at x = 0 and at x_max
(halve_ends), and with t = q dt, dt = pi / x_max, x_max dt = pi and
dx dt = 2 pi / n, e^{i q dt x_m} = e^{2 pi i q m / n}: samples of the
inverse transform are an inverse real DFT of the half spectrum (dft),
real by construction. A spectrum carries the length of the prefix
outside which its samples are 0, its band (the whole half grid unless
it says otherwise), and every pass reads only that band: a spectrum
whose band is below P / 2 for a power of two P < n takes that DFT as
n / P real FFTs of P points; every other spectrum takes one real FFT of
n points.

Each point is one rounding of an exact integer times dx, so the grids
are nested: the grid of 2n points over 2 x_max holds this one bit for
bit at indices 0..n/2, and the grid over x_max / 2^l is it divided by
2^l bit for bit.
"""

from __future__ import annotations

import functools
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
    """Uniform frequency grid of n points over [-x_max, x_max), stored as
    its half x_m = m dx, m = 0..n/2 (size points).

    n is a power of two so the FFT-based transforms below apply directly.
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
    def size(self) -> int:
        """Samples of a spectrum: x = 0, dx, ..., x_max."""
        return self.n // 2 + 1

    @property
    def x(self) -> np.ndarray:
        return self.points(slice(0, self.size))

    def points(self, index) -> np.ndarray:
        """x_m = m dx at the integer indices m, or at the indices of a
        slice, each bit for bit as in x: a fresh array."""
        if isinstance(index, slice):
            # integers below 2^53 are exact floats: one array, scaled in place
            m = np.arange(index.start, index.stop, dtype=float)
            m *= self.dx
            return m
        return self.dx * np.asarray(index)

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
    """Complex samples of a hermitian Fourier transform on the half grid
    of a FourierGrid, 0 from index band on (the whole half grid when band
    is not given)."""

    grid: FourierGrid
    values: np.ndarray
    band: int | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        size = self.grid.size
        if vals.shape != (size,):
            raise GridError(
                f"values must have length {size}, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)
        band = size if self.band is None else min(max(int(self.band), 0), size)
        object.__setattr__(self, "band", band)


def _check_same_grid(f: SampledSpectrum, g: SampledSpectrum) -> None:
    if f.grid != g.grid:
        raise GridError("spectra live on different grids")


def halve_ends(values: np.ndarray, grid: FourierGrid) -> np.ndarray:
    """values, a prefix of a half-grid array, with the samples at x = 0
    and, if the prefix reaches it, at x_max halved in place: the weights
    of the one-sided sum whose 2 Re is the full-grid sum. Halving is exact."""
    values[:1] /= 2.0
    if len(values) == grid.size:
        values[-1] /= 2.0
    return values


def inner_product(f: SampledSpectrum, g: SampledSpectrum) -> float:
    """(2 pi)^{-1} integral F conj(G), periodic-trapezoid quadrature over
    the full grid: (dx / pi) Re of the one-sided sum over the shorter of
    the two bands. Real, as both spectra are hermitian."""
    _check_same_grid(f, g)
    band = min(f.band, g.band)
    product = np.conjugate(g.values[:band])
    product *= f.values[:band]
    return float(np.sum(halve_ends(product.real, f.grid))) * f.grid.dx / np.pi


def l2_norm(f: SampledSpectrum) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


@functools.lru_cache(maxsize=4)
def _block_phases(n: int, block: int) -> np.ndarray:
    """e^{2 pi i rho w / n} at row rho = 0..n / block - 1 and column w =
    0..block / 2: the columns a real FFT of block points reads. rho w <
    n / 2 is an exact integer, so each angle is one rounding. Read only:
    one array per (n, block), not one per call."""
    k = np.multiply.outer(np.arange(n // block), np.arange(block // 2 + 1))
    phases = np.exp((1j * TWO_PI / n) * k)
    phases.flags.writeable = False
    return phases


def dft(values: np.ndarray, band: int) -> np.ndarray:
    """D_q = sum over the full grid of F(x_m) e^{2 pi i q m / n}, q =
    0..n-1, for the half spectrum F (n / 2 + 1 samples, 0 from index band
    on): real, as F is hermitian, and n times irfft(F), which counts
    x = 0 once and the Nyquist sample as 1/2 F + 1/2 conj F.

    When the band is at most P / 2 for a power of two P < n, the sum is
    split four-step (Bailey 1990): with r = n / P and q = r p + rho,
    e^{2 pi i q m / n} = e^{2 pi i p m / P} e^{2 pi i rho m / n}, and row
    rho of the block times the phases of _block_phases is hermitian in m
    and 0 at m = P / 2, so one batch of r real FFTs of P points over
    columns 0..P/2 holds D_{r p + rho} at p. Otherwise D is one real FFT
    of n points, bit for bit as np.fft.irfft(F, n, norm="forward").
    """
    n = 2 * (len(values) - 1)
    block = 1 << (2 * max(band, 1) - 1).bit_length()
    if block >= n:
        return np.fft.irfft(values, n, norm="forward")
    batch = _block_phases(n, block) * values[:block // 2 + 1]
    rows = np.fft.irfft(batch, block, axis=1, norm="forward")
    out = np.empty(n)
    out.reshape(block, -1)[...] = rows.T
    return out


def _weighted_rows(grid: FourierGrid, values: np.ndarray, band: int,
                   width: int) -> np.ndarray:
    """values[:band], a half-grid prefix, weighted by halve_ends, as the
    rows of a fresh (ceil(band / width), width) array, 0 past the band:
    row c holds x = (c width + r) dx at column r."""
    rows = np.zeros((-(-band // width), width), dtype=values.dtype)
    flat = rows.reshape(-1)[:band]
    flat[...] = values[:band]
    halve_ends(flat, grid)
    return rows


def inverse_transform_at(f: SampledSpectrum, q) -> np.ndarray:
    """f(q dt) for an integer array q, by one DFT of n / s points: real.

    e^{i q dt x_m} = e^{2 pi i q m / n}, so with s = gcd(n, every q) the
    phase repeats every n / s samples: the weighted half of F folds onto
    n / s points (a sum of the rows its band touches) and f(q dt) =
    (dx / 2 pi) 2 Re sum_c fold_c e^{2 pi i (q / s) c / (n / s)}, one FFT.
    With s = 1 that DFT is dft's. f is n dt periodic, so q is read
    modulo n.
    """
    grid = f.grid
    q = np.asarray(q)
    s = int(np.gcd.reduce(q, axis=None, initial=grid.n))
    if s == 1:  # no fold, and no copy of F
        sums = dft(f.values, f.band)[q % grid.n]
    else:
        row = grid.n // s
        folded = _weighted_rows(grid, f.values, f.band, row).sum(axis=0)
        sums = 2.0 * np.fft.ifft(folded, norm="forward")[q // s % row].real
    return (grid.dx / TWO_PI) * sums


def inverse_transform_window(f: SampledSpectrum, start: int,
                             stop: int) -> np.ndarray:
    """f(q dt) for the stop - start <= n consecutive q = start..stop - 1,
    bit for bit as inverse_transform_at gives two or more of them: D
    (dft) read from q = start on, periodically, and scaled by dx / 2 pi."""
    out = np.roll(dft(f.values, f.band), -start)[:stop - start]
    out *= f.grid.dx / TWO_PI
    return out


def fold_periods(grid: FourierGrid, values: np.ndarray,
                 band: int) -> np.ndarray:
    """values[:band], a half-grid prefix, weighted by halve_ends as rows
    of P = 2 pi / dx samples, one 2 pi period each: row q holds x =
    2 pi q + r dx at column r, so for a hermitian spectrum a column sum
    plus its mirror at -r mod P is the 2 pi periodization over the full
    grid. A fresh array. The grid must hold whole 2 pi periods on each
    side of x = 0.
    """
    period = round(TWO_PI / grid.dx)
    if not math.isclose(period * grid.dx, TWO_PI) or \
            (grid.n // 2) % period:
        raise GridError("the grid must hold whole 2 pi periods on each side "
                        "of x = 0")
    return _weighted_rows(grid, values, band, period)


DEFAULT_X_MAX = 64.0 * np.pi
DEFAULT_N = 2**16


def default_grid() -> FourierGrid:
    """Grid resolving Meyer supports up to level j = 4 without aliasing:
    the level-j member's spectrum reaches |x| = 2^j 8 pi / 3, which is
    <= x_max = 64 pi only for j <= 4."""
    return make_grid(DEFAULT_X_MAX, DEFAULT_N)
