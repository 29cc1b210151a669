"""Asymptotics of the inverse-filtered family for h2(x) = e^{-|x|^gamma}.

With f_j^(x) = e^{(2^j |x|)^gamma} psi^(x) (even real profile, compactly
supported in |x| <= a), both ||f_j|| and the values along the special
frequency sequence u_j = floor(2^{j gamma}) 2 pi / a blow up like
e^{a^gamma 2^{j gamma}}. All computations here carry that factor
symbolically: only the scaled quantities

    n_j = ||f_j|| e^{-a^gamma 2^{j gamma}},
    p_j = f_j(u_j) e^{-a^gamma 2^{j gamma}}

are ever materialized, via the boundary-layer substitution
y = 2^{j gamma} (a^gamma - x^gamma). The ratio p_j / n_j decays like
2^{-j gamma / 2}, strictly slower than any vaguelet decay bound allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .mra import MEYER_SUPPORT_RADIUS, meyer_psi_abs
from .report import CheckResult

Y_CUT_MAX = 40.0


class CounterexampleError(ValueError):
    """Invalid configuration."""


@dataclass(frozen=True)
class CounterexampleConfig:
    gamma: float
    j_min: int
    j_max: int
    n_points: int = 2048
    a: float = MEYER_SUPPORT_RADIUS

    def __post_init__(self):
        if self.gamma <= 0:
            raise CounterexampleError(f"gamma must be positive, got {self.gamma}")
        for name in ("j_min", "j_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise CounterexampleError(
                    f"{name} must be an integer, got {value!r}")
        if not 0 <= self.j_min <= self.j_max:
            raise CounterexampleError("need 0 <= j_min <= j_max")
        if len(self.j_range) < 5:
            raise CounterexampleError("the slope fit needs at least 5 levels, "
                                      f"got {self.j_min}..{self.j_max}")
        if self.n_points < 64:
            raise CounterexampleError("need at least 64 quadrature points")

    @property
    def j_range(self):
        return range(self.j_min, self.j_max + 1)

    def config(self) -> dict:
        return {"gamma": self.gamma, "j_min": self.j_min, "j_max": self.j_max,
                "n_points": self.n_points, "a": self.a}


def default_window(gamma: float) -> tuple:
    """Level window where the boundary-layer asymptotics have set in.

    Smaller gamma needs larger j: the subleading phase curvature decays
    like 2^{-j gamma}, so the asymptotic regime starts around j gamma ~ 8.
    """
    if gamma >= 2.0:
        return 4, 9
    if gamma >= 1.0:
        return 6, 12
    return 16, 24


def _psi_profile(x):
    """Even real wavelet modulus |psi^|; the phase is dropped (it is a
    pure shift and does not affect norms or the |ratio| asymptotics)."""
    return meyer_psi_abs(x)


def _y_grid(cfg: CounterexampleConfig, j: int, u: float | None):
    """Graded quadrature nodes in y = 2^{j gamma}(a^gamma - x^gamma).

    Log-spaced toward the boundary layer at y = 0, refined so the
    oscillation of e^{i u x(y)} is sampled with >= 16 points per period
    at the coarse end of the grid when a frequency u is given.
    Integration is Simpson in s = ln y (see _integrate).
    """
    g, a = cfg.gamma, cfg.a
    y_cut = min(a**g * 2.0 ** (j * g), Y_CUT_MAX)
    n = cfg.n_points
    if u is not None and u > 0.0:
        # |d phase / dy| = u 2^{-j gamma} x^{1 - gamma} / gamma
        x_lo = (a**g - y_cut * 2.0 ** (-j * g)) ** (1.0 / g)
        x_ends = np.array([max(x_lo, 1e-12), a])
        rate = u * 2.0 ** (-j * g) * float(np.max(x_ends ** (1.0 - g))) / g
        efolds = math.log(1e8)
        n_osc = math.ceil(efolds * 16.0 * y_cut * rate / (2.0 * np.pi))
        n = int(min(max(n, n_osc), 2**18))
    if n % 2 == 0:
        n += 1  # Simpson needs an even interval count
    nodes = np.geomspace(1e-8 * y_cut, y_cut, n)
    return nodes, y_cut


def _integrate(values: np.ndarray, y: np.ndarray) -> float | complex:
    """integral f(y) dy = integral f(e^s) e^s ds, composite Simpson in s
    over the odd node count _y_grid returns."""
    s = np.log(y)
    f = values * y
    dx = float(s[1] - s[0])
    return np.sum(f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]) * (dx / 3.0)


def _substituted(cfg: CounterexampleConfig, j: int, y: np.ndarray):
    """x(y) and the Jacobian factor of the substitution on given nodes."""
    g, a = cfg.gamma, cfg.a
    inner = a**g - y * 2.0 ** (-j * g)
    inner = np.maximum(inner, 0.0)
    x = inner ** (1.0 / g)
    psi = _psi_profile(x)
    # x^{1-gamma} factor of the Jacobian, masked where psi vanishes so the
    # gamma > 1 endpoint singularity at x = 0 never materializes
    jac = np.zeros_like(x)
    m = psi != 0.0
    jac[m] = (2.0 ** (-j * g) / g) * x[m] ** (1.0 - g)
    return x, psi, jac


def scaled_norm(j: int, cfg: CounterexampleConfig) -> float:
    """n_j = ||f_j|| e^{-a^gamma 2^{j gamma}} by boundary-layer quadrature."""
    y, _ = _y_grid(cfg, j, u=None)
    x, psi, jac = _substituted(cfg, j, y)
    integrand = np.exp(-2.0 * y) * psi**2 * jac
    val = float(_integrate(integrand, y)) / np.pi
    return math.sqrt(max(val, 0.0))


def special_frequency(j: int, cfg: CounterexampleConfig) -> float:
    return math.floor(2.0 ** (j * cfg.gamma)) * 2.0 * np.pi / cfg.a


def scaled_peak(j: int, cfg: CounterexampleConfig, u: float | None = None) -> float:
    """p_j = f_j(u) e^{-a^gamma 2^{j gamma}}, u defaulting to the special
    sequence u_j, where the boundary-layer phases add coherently."""
    if u is None:
        u = special_frequency(j, cfg)
    y, _ = _y_grid(cfg, j, u=u)
    x, psi, jac = _substituted(cfg, j, y)
    integrand = np.exp(1j * u * x) * np.exp(-y) * psi * jac
    return float(complex(_integrate(integrand, y)).real) / np.pi


@dataclass(frozen=True)
class CounterexampleRun:
    cfg: CounterexampleConfig
    scaled_norms: tuple
    scaled_peaks: tuple
    ratios: tuple
    ratio_slope: float
    ratio_residual: float
    r_hat_norm: float
    r_hat_peak: float

    def records(self):
        for i, j in enumerate(self.cfg.j_range):
            yield {"j": j, "scaled_norm": self.scaled_norms[i],
                   "scaled_peak": self.scaled_peaks[i],
                   "ratio": self.ratios[i]}


def _fit_slope(js, values):
    logs = np.log2(np.abs(np.asarray(values)))
    slope, intercept = np.polyfit(js, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * np.asarray(js)
                                           + intercept)) ** 2)))
    return float(slope), resid


def run_counterexample(cfg: CounterexampleConfig) -> CounterexampleRun:
    """Norms, peaks and fitted exponents over cfg's levels; a norm that
    underflows to 0 (gamma = 5, j >= 8) gives a NaN ratio and NaN fits."""
    js = list(cfg.j_range)
    norms = [scaled_norm(j, cfg) for j in js]
    peaks = [scaled_peak(j, cfg) for j in js]
    ratios = [p / n if n else math.nan for p, n in zip(peaks, norms)]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope, resid = _fit_slope(js, ratios)
        slope_n, _ = _fit_slope(js, norms)
        slope_p, _ = _fit_slope(js, peaks)
    g = cfg.gamma
    # ||f_j|| ~ 2^{-j gamma (1 + 2r)/2}, f_j(u_j) ~ 2^{-j gamma (1 + r)}
    r_hat_norm = (-2.0 * slope_n / g - 1.0) / 2.0
    r_hat_peak = -slope_p / g - 1.0
    return CounterexampleRun(cfg, tuple(norms), tuple(peaks), tuple(ratios),
                             slope, resid, r_hat_norm, r_hat_peak)


def ratio_exponent(run: CounterexampleRun) -> CheckResult:
    """Fitted slope of log2(p_j / n_j) vs j; the target is -gamma/2."""
    target = -run.cfg.gamma / 2.0
    return CheckResult(
        name="ratio_exponent",
        statistics={"slope": run.ratio_slope, "target": target,
                    "relative_slope_error": (abs(run.ratio_slope - target)
                                             / abs(target)),
                    "fit_residual": run.ratio_residual,
                    "r_hat_norm": run.r_hat_norm,
                    "r_hat_peak": run.r_hat_peak,
                    "ratios": list(run.ratios)},
        params=run.cfg.config(),
    )


def vaguelet_violation(run: CounterexampleRun, alpha1: float) -> CheckResult:
    """Measured ratio decay vs the decay a vaguelet bound would force.

    Along u_j ~ 2^{j gamma} the vaguelet decay statistic would force
    |f_j(u_j)| / ||f_j|| <~ 2^{-j gamma (1 + alpha1)}; the measured slope
    -gamma/2 is strictly slower, hence the family is not a vaguelet
    system for any 0 < alpha1 < 1.
    """
    if not 0.0 < alpha1 < 1.0:
        raise CounterexampleError(f"alpha1 must be in (0,1), got {alpha1}")
    check = CheckResult(
        name="vaguelet_violation",
        statistics={"measured_slope": run.ratio_slope,
                    "forced_slope": -run.cfg.gamma * (1.0 + alpha1),
                    "fit_residual": run.ratio_residual},
        params={**run.cfg.config(), "alpha1": alpha1},
    )
    check.statistics["violation"] = check.passed
    return check

