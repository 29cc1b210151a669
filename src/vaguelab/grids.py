"""Uniform frequency grids, Plancherel quadrature and FFT-consistent transforms.

Conventions used throughout the package:

    forward:  F(x) = integral e^{-i x t} f(t) dt
    inverse:  f(t) = (2 pi)^{-1} integral e^{i t x} F(x) dx
    inner product:  <f, g> = (2 pi)^{-1} integral F(x) conj(G(x)) dx

Grid invariant behind the transforms: x_m = (m - n/2) dx, m = 0..n-1,
and t = q dt for integer q, with dx = 2 x_max / n, dt = pi / x_max and
n a power of two >= 16, so x_max dt = pi and dx dt = 2 pi / n. Then
e^{i q dt x_m} = (-1)^q e^{2 pi i q m / n}: samples of the inverse
transform are an inverse DFT of F with a sign flip and no chirp factors
(inverse_transform_at). A spectrum whose nonzero samples all lie in a
centred block of P < n points takes that DFT as n / P FFTs of P points
(dft); every other spectrum takes one FFT of n points.

Each point is one rounding of an exact integer times dx, so the grid is
mirror-exact (x_{n-m} = -x_m bit for bit) and nested: the grid of 2n
points over 2 x_max holds it bit for bit at indices n/2..3n/2 - 1, and
the grid over x_max / 2^l is it divided by 2^l bit for bit.
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
        return self.points(slice(0, self.n))

    def points(self, index) -> np.ndarray:
        """x_m = (m - n/2) dx at the integer indices m, or at the indices of
        a slice, each bit for bit as in x: a fresh array."""
        if isinstance(index, slice):
            # integers below 2^53 are exact floats: one array, scaled in place
            m = np.arange(index.start - self.n // 2, index.stop - self.n // 2,
                          dtype=float)
            m *= self.dx
            return m
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


def _check_same_grid(f: SampledSpectrum, g: SampledSpectrum) -> None:
    if f.grid != g.grid:
        raise GridError("spectra live on different grids")


def inner_product(f: SampledSpectrum, g: SampledSpectrum,
                  out: np.ndarray | None = None) -> complex:
    """(2 pi)^{-1} integral F conj(G), periodic-trapezoid quadrature. The
    products are formed in out (n complex) when it is given."""
    _check_same_grid(f, g)
    # conj(G) F, the order NumPy's temporary elision gives F * conj(G) on
    # large arrays: complex multiply does not commute bit for bit
    product = np.conjugate(g.values, out=out)
    np.multiply(product, f.values, out=product)
    return complex(np.sum(product) * f.grid.dx / TWO_PI)


def l2_norm(f: SampledSpectrum, out: np.ndarray | None = None) -> float:
    sq = inner_product(f, f, out).real
    return float(np.sqrt(max(sq, 0.0)))


@functools.lru_cache(maxsize=4)
def _block_phases(n: int, block: int) -> np.ndarray:
    """e^{2 pi i rho m / n} = (-1)^rho e^{2 pi i rho v / n} at row rho =
    0..n / block - 1 and column v = 0..block / 2, for the grid index m =
    n/2 + v. The phase at -v is the conjugate of the one at v, so these
    n / 2 + n / block values serve the whole centred block. Read only:
    one array per (n, block), not one per call."""
    m = n // 2 + np.arange(block // 2 + 1)
    # rho m mod n, centred on 0: an exact integer, one rounding of the angle
    k = (np.multiply.outer(np.arange(n // block), m) + n // 2) % n - n // 2
    phases = np.exp((1j * TWO_PI / n) * k)
    phases.flags.writeable = False
    return phases


def dft(values: np.ndarray, out: np.ndarray | None = None,
        scratch: np.ndarray | None = None) -> np.ndarray:
    """D_q = sum_m F_m e^{2 pi i q m / n}, q = 0..n-1: ifft(F) times n, in
    out (n complex) when it is given.

    When every nonzero F_m lies in the centred block n/2 - P/2 <= m <
    n/2 + P/2 of the smallest power of two P >= 2 that holds them, and
    P < n, the sum is split four-step (Bailey 1990): with r = n / P (even)
    and q = r p + rho, e^{2 pi i q m / n} = e^{2 pi i p m / P}
    e^{2 pi i rho m / n}, so row rho of one batch of r FFTs of P points,
    over the block times the phases of _block_phases, holds D_{r p + rho}
    at p. The block is in FFT order, m = n/2 + w for w < P/2 and m = n/2
    + w - P after, and the batch is formed in scratch (n complex, apart
    from out) when it is given. Otherwise D is one FFT of n points, bit
    for bit as np.fft.ifft(F, norm="forward").
    """
    n = len(values)
    nonzero = values != 0
    first = int(np.argmax(nonzero))
    last = n - 1 - int(np.argmax(nonzero[::-1]))
    half = max(n // 2 - first, last + 1 - n // 2) if nonzero[first] else 1
    block = 1 << (2 * half - 1).bit_length()
    if block >= n:
        return np.fft.ifft(values, norm="forward", out=out)
    h = block // 2
    phases = _block_phases(n, block)
    batch = (np.empty(n, dtype=complex) if scratch is None
             else scratch).reshape(-1, block)
    np.multiply(phases[:, :h], values[n // 2:n // 2 + h], out=batch[:, :h])
    np.conjugate(phases[:, h:0:-1], out=batch[:, h:])  # v = -h..-1
    batch[:, h:] *= values[n // 2 - h:n // 2]
    np.fft.ifft(batch, axis=1, norm="forward", out=batch)
    out = np.empty(n, dtype=complex) if out is None else out
    out.reshape(block, -1)[...] = batch.T
    return out


def inverse_transform_at(f: SampledSpectrum, q) -> np.ndarray:
    """f(q dt) for an integer array q, by one DFT of n / s points.

    e^{i q dt x_m} = (-1)^q e^{2 pi i q m / n}, so with s = gcd(n, every q)
    the phase repeats every n / s samples: F folds onto n / s points (a
    reshape-sum, as in fold_periods) and one FFT of that length gives
    f(q dt) = (dx / 2 pi) (-1)^q sum_c fold_c e^{2 pi i (q / s) c / (n / s)}.
    With s = 1 that DFT is dft's. f is n dt periodic, so q is read modulo
    n.
    """
    grid = f.grid
    q = np.asarray(q)
    s = int(np.gcd.reduce(q, axis=None, initial=grid.n))
    if s == 1:  # no fold, and no copy of F
        sums = dft(f.values)[q % grid.n]
    else:
        folded = f.values.reshape(s, -1).sum(axis=0)
        sums = np.fft.ifft(folded, norm="forward")[q // s % (grid.n // s)]
    return np.where(q % 2, -1.0, 1.0) * (grid.dx / TWO_PI) * sums


def inverse_transform_window(f: SampledSpectrum, start: int, stop: int,
                             work: np.ndarray) -> np.ndarray:
    """f(q dt) for the stop - start <= n consecutive q = start..stop - 1,
    bit for bit as inverse_transform_at gives two or more of them: D (dft)
    copied out as at most two slices of one period, then scaled by
    +-dx / 2 pi in place. work, a (2, n) complex array, holds D in row 0
    and the samples, the result, at the start of row 1, which serves dft
    as scratch first."""
    n = f.grid.n
    sums = dft(f.values, work[0], work[1])
    out = work[1, :stop - start]
    lo = start % n
    head = min(len(out), n - lo)
    out[:head] = sums[lo:lo + head]
    out[head:] = sums[:len(out) - head]
    scale = f.grid.dx / TWO_PI
    # two multiplies by +-scale, as the where(...) * scale above rounds
    out[start % 2::2] *= scale
    out[1 - start % 2::2] *= -scale
    return out


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
