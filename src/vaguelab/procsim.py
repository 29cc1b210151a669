"""Gaussian process synthesis from the truncated biorthogonal expansion.

X(t) = sum_k a_{0,k} Phi-term_{0,k}(t)
     + sum_{j=0..J} sum_{|k|<=K} d_{j,k} Psi-term_{j,k}(t)

with i.i.d. N(0,1) coefficients. The terms are the un-normalized
synthesis-side members; the synthesis side is the one whose squared
filter modulus equals the target spectral density (primal for the OU
pair as configured here, dual for the fractional pair). With h1 = h2
the truncated covariance kernel is exactly the completeness sum of the
orthonormal system filtered on both sides, so it converges to the
autocovariance with spectral density |h2|^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .family import FamilyBuilder
from .filters import FilterPair, FractionalFilter, OUFilter
from .grids import fold_periods
from .mra import WaveletSpec
from .report import CheckResult


PATH_BLOCK = 2**10  # paths per coefficient block of simulate (1 MB at K = 64)
FILL_THREADS = 2  # most threads filling one block; only 2 CPUs were measured
# least draws per thread before a block is split: on 2 CPUs with K = 64,
# two threads lost below about 26 000 draws each and won from 32 000
THREAD_DRAWS = 2**15


class ProcsimError(ValueError):
    """Invalid synthesis plan or estimator input."""


class TermOverflowError(ProcsimError):
    """The terms of one level overflow: its filter scale e^{log_scale} is
    beyond the float range."""

    def __init__(self, level: int, side: str, role: str, log_scale: float):
        super().__init__(f"level {level}: the {side} {role} terms overflow "
                         f"(filter scale e^{log_scale:.6g})")
        self.level = level
        self.log_scale = log_scale


def dyadic_times(t_min: float, t_max: float, resolution: int = 10) -> np.ndarray:
    """Times on the dyadic grid of spacing 2^{-resolution}."""
    step = 2.0**-resolution
    lo = math.ceil(t_min / step)
    hi = math.floor(t_max / step)
    return step * np.arange(lo, hi + 1)


@dataclass(frozen=True)
class SynthesisPlan:
    pair: FilterPair
    wavelet: WaveletSpec
    times: np.ndarray = field(repr=False)
    J_detail: int = 6
    K: int = 64
    synthesis_side: str = "primal"
    include_approximation: bool = True
    seed: int = 0
    n_paths: int = 1
    resolution: int = 10  # times on the dyadic grid of step 2^{-resolution}
    j_coarse: int = 0  # lowest detail level; negative = coarser than base

    def __post_init__(self):
        for name in ("J_detail", "K", "n_paths", "j_coarse", "resolution",
                     "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ProcsimError(f"{name} must be an integer, got {value!r}")
        if (self.J_detail < 0 or self.K < 1 or self.n_paths < 1
                or self.seed < 0):
            raise ProcsimError("need J_detail >= 0, K >= 1, n_paths >= 1, "
                               "seed >= 0")
        if self.j_coarse > 0 or self.j_coarse < -20:
            raise ProcsimError("j_coarse must be in -20..0")
        if self.j_coarse < 0 and self.include_approximation:
            raise ProcsimError("negative detail levels overlap the level-0 "
                               "approximation block; exclude one of them")
        if self.synthesis_side not in ("primal", "dual"):
            raise ProcsimError(f"bad synthesis side {self.synthesis_side!r}")
        if self.resolution < 6 or self.resolution > 14:
            raise ProcsimError("resolution must be in 6..14")
        t = np.asarray(self.times, dtype=float)
        step = 2.0**-self.resolution
        snapped = step * np.round(t / step)
        if np.max(np.abs(snapped - t), initial=0.0) > 1e-9:
            raise ProcsimError(
                f"times must lie on the dyadic grid of step 2^-{self.resolution}")
        object.__setattr__(self, "times", snapped)

    def levels(self):
        """(block, j) of each level block, in term order."""
        approx = [("approximation", 0)] if self.include_approximation else []
        return approx + [("wavelet", j)
                         for j in range(self.j_coarse, self.J_detail + 1)]

    def term_keys(self):
        ks = range(-self.K, self.K + 1)
        return [(block, j, k) for block, j in self.levels() for k in ks]

    def config(self) -> dict:
        return {
            "filters": self.pair.config(),
            "wavelet": self.wavelet.config(),
            "J_detail": self.J_detail, "K": self.K,
            "synthesis_side": self.synthesis_side,
            "include_approximation": self.include_approximation,
            "seed": self.seed, "n_paths": self.n_paths,
            "resolution": self.resolution, "j_coarse": self.j_coarse,
            "times": [float(t) for t in self.times],
        }


@dataclass(frozen=True)
class PathEnsemble:
    times: np.ndarray
    values: np.ndarray  # n_paths x n_times, real
    plan_config: dict

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _level_terms(builder: FamilyBuilder, j: int, side: str, role: str,
                 ks: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(k x t) block of terms 2^{j/2} g_j(2^j t - k), for any integer j.

    g_j(tau) = (2 pi)^{-1} sum_m G(y_m) e^{i tau y_m} dy is the quadrature
    over the builder's full y-grid of the level spectrum G: its inverse
    transform, at any tau. G is hermitian, so the sum is 2 Re of the one
    over y >= 0 with the end weights of grids.halve_ends. That half has
    y = 2 pi (q + r / P), q >= 0, r = 0..P-1, with P = 2 pi / dy, and
    e^{-iky} is 2 pi-periodic. Write s = 2^j t as n + f, n = floor(s),
    0 <= f < 1 (exact in floating point); then
        sum_m G e^{i(s-k)y} = F_f[(k - n) mod P],
        F_f[m] = sum_r e^{-2 pi i mr/P} e^{2 pi i fr/P} A_f[r],
        A_f[r] = sum_q e^{2 pi i fq} G[q, r],
    because e^{2 pi i nq} = 1 and e^{2 pi i nr/P} only shifts the FFT's
    output index. One product over the rows q that G's band touches
    (grids.fold_periods) and one length-P FFT per distinct f give every k
    and every time sharing that f: a single FFT row when all times are
    multiples of 2^{-j}, n_t rows when no two share one. The q-phases are
    reduced to [0, 1) cycles before the exp, exactly for dyadic f. Terms
    whose true tau = s - k lies outside the profile's window [-pi/dy,
    pi/dy) are 0; the fold alone would return g_j(tau -+ P) there. The
    spectrum's factor e^{log_scale} is multiplied back into the terms: a
    level where it underflows contributes 0, one where it overflows is
    refused.
    """
    grid = builder.grid
    spectrum, log_scale = builder.level_spectrum(j, side, role)
    try:
        scale = math.exp(log_scale)
    except OverflowError:
        raise TermOverflowError(j, side, role, log_scale) from None
    folded = fold_periods(grid, spectrum.values, spectrum.band)
    period = folded.shape[1]
    q = np.arange(len(folded))
    s = 2.0**j * times
    whole = np.floor(s)
    fracs, row = np.unique(s - whole, return_inverse=True)
    summed = np.exp(2j * np.pi * (np.outer(fracs, q) % 1.0)) @ folded
    summed *= np.exp(2j * np.pi * (np.outer(fracs, np.arange(period))
                                   / period))
    shifted = (ks[:, None] - whole.astype(np.int64)[None, :]) % period
    terms = np.fft.fft(summed, axis=1)[row[None, :], shifted].real
    tau = s[None, :] - ks[:, None]
    terms[(tau < -period / 2) | (tau >= period / 2)] = 0.0
    return scale * 2.0 ** (j / 2.0) * grid.dx / np.pi * terms


def _level_blocks(plan: SynthesisPlan):
    """(keys, terms) of each level block in term_keys() order, terms the
    (2K+1) x n_t block term[(block, j, k), t] on plan.times; the
    approximation block uses h1 = h2 so the kernel is the two-sided
    filtered completeness sum."""
    ks = np.arange(-plan.K, plan.K + 1)
    builders = {"wavelet": FamilyBuilder(plan.wavelet, plan.pair)}
    if plan.include_approximation:
        h2 = plan.pair.h2
        builders["approximation"] = FamilyBuilder(plan.wavelet,
                                                  FilterPair(h2, h2))
    for block, j in plan.levels():
        keys = [(block, j, k) for k in range(-plan.K, plan.K + 1)]
        yield keys, _level_terms(builders[block], j, plan.synthesis_side,
                                 block, ks, plan.times)


def _term_matrix(plan: SynthesisPlan) -> np.ndarray:
    """Dense matrix term[(block, j, k), t] on plan.times, rows in
    term_keys() order."""
    return np.vstack([terms for _, terms in _level_blocks(plan)])


def covariance_kernel(plan: SynthesisPlan, t, s) -> np.ndarray:
    """K(t, s) = sum over truncation of term(t) term(s), elementwise over
    broadcast (t, s) arrays; symmetric by construction. A value that is
    not finite (finite terms whose products overflow) is refused, naming
    the first such (t, s)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if t.shape != s.shape:
        raise ProcsimError("t and s must have matching shapes")
    m = _term_matrix(replace(plan, times=np.concatenate([t, s])))
    mt, ms = m[:, :len(t)], m[:, len(t):]
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = np.einsum("rt,rt->t", mt, ms)
    bad = np.flatnonzero(~np.isfinite(kernel))
    if bad.size:
        i = bad[0]
        raise ProcsimError(f"kernel value at (t, s) = ({float(t[i])!r}, "
                           f"{float(s[i])!r}) is not finite: "
                           f"{float(kernel[i])!r}")
    return kernel


def _coefficient_stream(plan: SynthesisPlan, key) -> np.random.Generator:
    """The coefficient stream of one term key (block, j, k): a
    counter-based generator seeded by (seed, block, j, k), so generation
    order over terms is irrelevant and results are bit-exact for a given
    plan. Path p's coefficient is the stream's p-th standard normal."""
    block, j, k = key
    block_id = {"approximation": 0, "wavelet": 1}[block]
    seq = np.random.SeedSequence((plan.seed, block_id, j + 2**31, k + 2**31))
    return np.random.Generator(np.random.Philox(seq))


def _fill_threads() -> int:
    """Threads that may fill one coefficient block: the usable CPUs, at
    most FILL_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, FILL_THREADS)


def _fill(rows, keys, streams, forced) -> None:
    """Fill each row with its key's next draws, or its forced value. NumPy
    releases the GIL inside standard_normal, so slices fill in parallel;
    nothing is allocated here."""
    for row, key, stream in zip(rows, keys, streams):
        if stream is None:
            row[:] = forced[key]
        else:
            stream.standard_normal(out=row)


def simulate(plan: SynthesisPlan, forced: dict | None = None) -> PathEnsemble:
    """Draw the coefficients and form the paths, one level block and one
    block of at most PATH_BLOCK paths at a time: memory is
    O(n_paths x n_times) plus one (2K + 1) x PATH_BLOCK coefficient block.

    Each key's stream is drawn in order, block after block, so the paths
    do not depend on the block size. The blocks are balanced, so none
    holds a single path when n_paths > 1: NumPy forms a one-row product
    by gemv, which rounds differently from the gemm of the other rows.
    When each thread's share of a block reaches THREAD_DRAWS draws, the
    block's rows are filled by up to FILL_THREADS threads, one contiguous
    slice of keys each; each row still holds its own stream's draws and
    the product still spans every row, so the paths do not depend on the
    CPU count either.

    forced maps (block, j, k) term keys to constant coefficient values,
    overriding the random draw for those terms (test hook; also realizes
    linearity checks).
    """
    forced = {} if forced is None else forced
    unknown = set(forced) - set(plan.term_keys())
    if unknown:
        raise ProcsimError("forced keys not in the plan: "
                           f"{sorted(unknown, key=repr)}")
    n_blocks = -(-plan.n_paths // PATH_BLOCK)
    edges = [plan.n_paths * i // n_blocks for i in range(n_blocks + 1)]
    buffer = np.empty((2 * plan.K + 1, -(-plan.n_paths // n_blocks)))
    values = np.zeros((plan.n_paths, len(plan.times)))
    n_threads = max(1, min(_fill_threads(), buffer.size // THREAD_DRAWS))
    cuts = [len(buffer) * i // n_threads for i in range(n_threads + 1)]
    pool = None
    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(n_threads - 1)
    try:
        for keys, terms in _level_blocks(plan):
            streams = [None if key in forced
                       else _coefficient_stream(plan, key) for key in keys]
            for start, stop in zip(edges, edges[1:]):
                rows = buffer[:, :stop - start]
                slices = [(rows[a:b], keys[a:b], streams[a:b], forced)
                          for a, b in zip(cuts, cuts[1:])]
                tasks = [pool.submit(_fill, *part) for part in slices[1:]]
                _fill(*slices[0])
                for task in tasks:
                    task.result()
                values[start:stop] += rows.T @ terms
    finally:
        if pool is not None:
            pool.shutdown()
    return PathEnsemble(plan.times, values, plan.config())


def target_autocovariance(pair: FilterPair, u, n: int = 2**20,
                          x_max: float = 4096.0):
    """Autocovariance with spectral density |h2|^2, by direct quadrature.

    Supported for the OU pair (closed form e^{-|u|}/2 exists as an
    independent cross-check). Fractional pairs have no stationary
    autocovariance; use fbm_scaling for the increment structure instead.
    """
    h2 = pair.h2
    if isinstance(h2, FractionalFilter):
        raise ProcsimError("fractional pair has no stationary autocovariance; "
                           "use fbm_scaling")
    if not isinstance(h2, OUFilter):
        raise ProcsimError(f"unsupported filter kind {h2.kind!r}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = np.linspace(-x_max, x_max, n + 1)
    dens = np.abs(h2.eval(x)) ** 2
    out = np.array([float(np.trapezoid(np.cos(ui * x) * dens, x))
                    for ui in u]) / (2.0 * np.pi)
    return out if out.shape != (1,) else float(out[0])


def empirical_covariance(ensemble: PathEnsemble, pairs) -> list:
    """Across-path covariance estimates at (t, s) pairs with jackknife
    standard errors. Requires at least 100 paths."""
    n = ensemble.n_paths
    if n < 100:
        raise ProcsimError(f"need at least 100 paths, got {n}")
    times = ensemble.times
    out = []
    for t_req, s_req in pairs:
        it = int(np.argmin(np.abs(times - t_req)))
        isd = int(np.argmin(np.abs(times - s_req)))
        if abs(times[it] - t_req) > 1e-9 or abs(times[isd] - s_req) > 1e-9:
            raise ProcsimError(f"probe ({t_req}, {s_req}) not on the time grid")
        x, y = ensemble.values[:, it], ensemble.values[:, isd]
        est = float(np.mean(x * y) - np.mean(x) * np.mean(y))
        # leave-one-out jackknife, vectorized
        sx, sy, sxy = np.sum(x), np.sum(y), np.sum(x * y)
        m = n - 1
        loo = (sxy - x * y) / m - ((sx - x) / m) * ((sy - y) / m)
        se = float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))
        out.append({"t": float(times[it]), "s": float(times[isd]),
                    "estimate": est, "se": se})
    return out


def fbm_scaling(d: float, deltas, J_detail: int = 8, K: int = 64,
                j_coarse: int = -6, wavelet: WaveletSpec | None = None,
                t_probes=(0.0, 0.25, 0.5), resolution: int = 10) -> CheckResult:
    """Hurst exponent from kernel increment variances of the detail band.

    Synthesis side is dual with h2 = Fractional(d), so the term filter
    modulus is |x|^{-d} and the increments scale like delta^{2H} with
    H = d - 1/2. The slope of log Var(X(t+delta) - X(t)) vs log delta is
    fitted over the dyadic deltas, which must be resolved by the detail
    levels: 2^{-J_detail} <= delta <= 1. The spectral weight |x|^{-2d}
    concentrates at low frequencies, so coarse levels below the base scale
    (j_coarse < 0) are required to keep the large-delta variances unbiased;
    the approximation block stays excluded (its zero-frequency content
    diverges under the fractional filter).
    """
    if not 0.5 < d < 1.5:
        raise ProcsimError(f"need d in (1/2, 3/2), got {d}")
    deltas = np.asarray(sorted(float(x) for x in deltas))
    if np.any(deltas < 2.0**-J_detail) or np.any(deltas > 1.0):
        raise ProcsimError("deltas outside the band resolved by the levels")
    wavelet = wavelet if wavelet is not None else WaveletSpec("meyer")
    pair = FilterPair(FractionalFilter(d), FractionalFilter(d))
    plan = SynthesisPlan(pair, wavelet, times=np.array([0.0]),
                         J_detail=J_detail, K=K, synthesis_side="dual",
                         include_approximation=False, resolution=resolution,
                         j_coarse=j_coarse)
    t_all, s_all = [], []
    for delta in deltas:
        for t0 in t_probes:
            t_all.extend([t0 + delta, t0 + delta, t0])
            s_all.extend([t0 + delta, t0, t0])
    kk = covariance_kernel(plan, np.array(t_all), np.array(s_all))
    kk = kk.reshape(len(deltas), len(t_probes), 3)
    variances = list(np.mean(kk[:, :, 0] - 2.0 * kk[:, :, 1] + kk[:, :, 2],
                             axis=1))
    slope, intercept = np.polyfit(np.log(deltas), np.log(variances), 1)
    h_hat = float(slope) / 2.0
    resid = float(np.sqrt(np.mean(
        (np.log(variances) - (slope * np.log(deltas) + intercept)) ** 2)))
    return CheckResult(
        name="fbm_scaling",
        statistics={"H_hat": h_hat, "H_target": d - 0.5,
                    "H_error": abs(h_hat - (d - 0.5)),
                    "fit_residual": resid,
                    "variances": [float(v) for v in variances]},
        params={"d": d, "J_detail": J_detail, "K": K, "j_coarse": j_coarse,
                "deltas": [float(x) for x in deltas],
                "wavelet": wavelet.config()},
    )
