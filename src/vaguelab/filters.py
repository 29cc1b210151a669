"""Frequency-domain filter pairs (h1, h2) and their assumption checks.

Each filter exposes closed-form values of d^k/dx^k h(x)^p for p in {-1, +1}
and k in {0, 1, 2}, plus a quasi-homogeneity exponent d when it has one.
All built-ins are hermitian: h(x) = conj(h(-x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import CheckResult


class FilterEvalError(ValueError):
    """Evaluation at a pole or unsupported derivative request."""


class Filter:
    """Base filter; subclasses provide _eval(x, power, order)."""

    kind: str = "abstract"
    d: float | None = None  # quasi-homogeneity exponent, None if it has none

    def eval(self, x, power: int = 1, order: int = 0) -> np.ndarray:
        if power not in (-1, 1):
            raise FilterEvalError(f"power must be -1 or +1, got {power}")
        if order not in (0, 1, 2):
            raise FilterEvalError(f"order must be 0, 1 or 2, got {order}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._eval(x, power, order)

    def eval_scaled(self, x, power: int = 1):
        """(values * e^{-log_scale}, log_scale): overflow-safe order-0 values.

        Only filters with super-exponential growth override this.
        """
        return self.eval(x, power=power, order=0), 0.0

    def config(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return f"{type(self).__name__}({self.config()})"


class UnitFilter(Filter):
    kind = "unit"
    d = 0.0

    def _eval(self, x, power, order):
        if order == 0:
            return np.ones_like(x, dtype=complex)
        return np.zeros_like(x, dtype=complex)


class OUFilter(Filter):
    """h(x) = (1 + x^2)^{-1/2}; |h|^2 is the OU spectral density."""

    kind = "ou"
    d = 1.0

    def _eval(self, x, power, order):
        s = 1.0 + x**2
        if power == 1:
            if order == 0:
                return (s**-0.5).astype(complex)
            if order == 1:
                return (-x * s**-1.5).astype(complex)
            return ((2.0 * x**2 - 1.0) * s**-2.5).astype(complex)
        if order == 0:
            return (s**0.5).astype(complex)
        if order == 1:
            return (x * s**-0.5).astype(complex)
        return (s**-1.5).astype(complex)


class OUComplexFilter(Filter):
    """h(x) = 1 / (1 + i x)."""

    kind = "ou_complex"
    d = 1.0

    def _eval(self, x, power, order):
        z = 1.0 + 1j * x
        if power == 1:
            return math.factorial(order) * (-1j) ** order / z ** (order + 1)
        if order == 0:
            return z.astype(complex)
        if order == 1:
            return np.full_like(x, 1j, dtype=complex)
        return np.zeros_like(x, dtype=complex)


def _ix_pow(x, d):
    """(ix)^d with the branch |x|^d e^{+i pi d / 2} for x > 0, conjugate for x < 0."""
    out = np.abs(x).astype(complex) ** d
    out *= np.exp(1j * 0.5 * np.pi * d * np.sign(x))
    return out


class FractionalFilter(Filter):
    """h(x) = (ix)^d, exactly homogeneous of order d (quasi-homogeneity exponent -d)."""

    kind = "fractional"

    def __init__(self, d_exponent: float):
        self.d_exponent = float(d_exponent)
        # |h| = |x|^{d_exponent} matches C |x|^{-d} with d = -d_exponent
        self.d = -self.d_exponent

    def _eval(self, x, power, order):
        e = power * self.d_exponent
        if np.any(x == 0.0) and (e < order or (e != round(e) and order > 0) or e < 0):
            raise FilterEvalError(
                f"fractional filter (ix)^{self.d_exponent} pole/singularity at x=0 "
                f"for power={power}, order={order}"
            )
        base = _ix_pow(x, e)
        coeff = 1.0
        for i in range(order):
            coeff = coeff * (e - i)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = coeff * base / np.where(x == 0.0, 1.0, x) ** order
        out = np.where(x == 0.0, 0.0 if e > order else out, out)
        return out

    def config(self):
        return {"kind": self.kind, "d": self.d_exponent}


class MSTApproxFilter(Filter):
    """h(x) = (ix / (1 - e^{-ix}))^d; h / (ix)^d is 2 pi periodic."""

    kind = "mst_approx"

    def __init__(self, d_exponent: float):
        self.d_exponent = float(d_exponent)
        self.d = -self.d_exponent

    @staticmethod
    def _w(x):
        """w(x) = ix / (1 - e^{-ix}) with its first two derivatives."""
        z = 1j * x
        small = np.abs(x) < 1e-2
        xs = np.where(small, 1.0, x)
        den = 1.0 - np.exp(-1j * xs)
        dden = 1j * np.exp(-1j * xs)
        d2den = np.exp(-1j * xs)
        w = 1j * xs / den
        w1 = 1j / den - 1j * xs * dden / den**2
        w2 = (-2j * dden / den**2 - 1j * xs * d2den / den**2
              + 2j * xs * dden**2 / den**3)
        # series around 0: w = 1 + z/2 + z^2/12 - z^4/720 + O(z^6), z = ix
        w_small = 1.0 + z / 2.0 + z**2 / 12.0 - z**4 / 720.0
        w1_small = 1j * (0.5 + z / 6.0 - z**3 / 180.0)
        w2_small = -(1.0 / 6.0 - z**2 / 60.0)
        return (np.where(small, w_small, w),
                np.where(small, w1_small, w1),
                np.where(small, w2_small, w2))

    def _eval(self, x, power, order):
        k_near = np.round(x / (2.0 * np.pi))
        on_pole = (np.abs(x - 2.0 * np.pi * k_near) < 1e-9) & (k_near != 0)
        if np.any(on_pole):
            raise FilterEvalError("mst_approx filter pole at a nonzero multiple of 2 pi")
        e = power * self.d_exponent
        w, w1, w2 = self._w(x)
        if order == 0:
            return w**e
        if order == 1:
            return e * w ** (e - 1.0) * w1
        return e * (e - 1.0) * w ** (e - 2.0) * w1**2 + e * w ** (e - 1.0) * w2

    def config(self):
        return {"kind": self.kind, "d": self.d_exponent}


class ExpGammaFilter(Filter):
    """h(x) = e^{-|x|^gamma}: not quasi-homogeneous for any gamma > 0."""

    kind = "exp_gamma"
    d = None

    def __init__(self, gamma: float):
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def _eval(self, x, power, order):
        g = self.gamma
        ax = np.abs(x)
        h = np.exp(-power * ax**g)
        if order == 0:
            return h.astype(complex)
        if np.any(x == 0.0) and g < order:
            raise FilterEvalError(
                f"exp_gamma derivative of order {order} singular at 0 for gamma={g}"
            )
        u1 = -power * g * ax ** (g - 1.0) * np.sign(x)  # (d/dx)(-power |x|^g)
        if order == 1:
            return (h * u1).astype(complex)
        u2 = -power * g * (g - 1.0) * ax ** (g - 2.0)
        return (h * (u1**2 + u2)).astype(complex)

    def eval_scaled(self, x, power: int = 1):
        g = self.gamma
        expo = -power * np.abs(np.asarray(x, dtype=float)) ** g
        m = float(np.max(expo))
        if abs(m) < 300.0:
            return np.exp(expo).astype(complex), 0.0
        return np.exp(expo - m).astype(complex), m

    def config(self):
        return {"kind": self.kind, "gamma": self.gamma}


class RationalFilter(Filter):
    """h(x) = p(x) / q(x), evaluated by Horner; derivatives by quotient rule."""

    kind = "rational"

    @staticmethod
    def _coeffs(arr):
        # increasing degree order; entries are scalars or [re, im] pairs
        a = np.asarray(arr)
        if a.ndim == 2 and a.shape[1] == 2:
            return a[:, 0] + 1j * a[:, 1]
        return a.astype(complex)

    def __init__(self, numer, denom):
        self.numer = self._coeffs(numer)
        self.denom = self._coeffs(denom)
        if np.allclose(self.denom, 0):
            raise ValueError("denominator is identically zero")
        self.d = float(
            (len(np.trim_zeros(self.denom, "b")) - 1)
            - (len(np.trim_zeros(self.numer, "b")) - 1)
        )

    @staticmethod
    def _horner(coeffs, x, order):
        p = np.polynomial.polynomial.Polynomial(coeffs)
        return p.deriv(order)(x) if order else p(x)

    def _eval(self, x, power, order):
        p = [self._horner(self.numer, x, k) for k in range(order + 1)]
        q = [self._horner(self.denom, x, k) for k in range(order + 1)]
        if power == -1:
            p, q = q, p
        if np.any(np.abs(q[0]) < 1e-300):
            raise FilterEvalError("rational filter pole on the evaluation set")
        f = p[0] / q[0]
        if order == 0:
            return f
        f1 = (p[1] - f * q[1]) / q[0]
        if order == 1:
            return f1
        return (p[2] - 2.0 * f1 * q[1] - f * q[2]) / q[0]

    def config(self):
        return {"kind": self.kind,
                "numer": [[float(c.real), float(c.imag)] for c in self.numer],
                "denom": [[float(c.real), float(c.imag)] for c in self.denom]}


def filter_from_config(cfg: dict) -> Filter:
    cfg = dict(cfg)
    kind = cfg.pop("kind")
    table = {
        "unit": lambda: UnitFilter(),
        "ou": lambda: OUFilter(),
        "ou_complex": lambda: OUComplexFilter(),
        "fractional": lambda: FractionalFilter(float(cfg.pop("d"))),
        "mst_approx": lambda: MSTApproxFilter(float(cfg.pop("d"))),
        "exp_gamma": lambda: ExpGammaFilter(float(cfg.pop("gamma"))),
        "rational": lambda: RationalFilter(cfg.pop("numer"), cfg.pop("denom")),
    }
    if kind not in table:
        raise ValueError(f"unknown filter kind {kind!r}")
    filt = table[kind]()
    if cfg:
        raise ValueError(f"unknown filter config keys: {sorted(cfg)}")
    return filt


@dataclass(frozen=True)
class FilterPair:
    h1: Filter
    h2: Filter

    def config(self) -> dict:
        return {"h1": self.h1.config(), "h2": self.h2.config()}


def unit_pair() -> FilterPair:
    return FilterPair(UnitFilter(), UnitFilter())


def hermitian_defect(h: Filter, x_hi: float = 50.0, n: int = 1024) -> float:
    x = np.linspace(0.1, x_hi, n)
    return float(np.max(np.abs(h.eval(x) - np.conj(h.eval(-x)))))


def quasi_homogeneity_check(h: Filter, eps: float = 1.0, x_hi: float = 1000.0,
                            n_points: int = 256) -> CheckResult:
    """Fit |h(x)| ~ C |x|^{-d} on [eps, x_hi]; report (d_hat, C1, C2)."""
    if not eps < x_hi:
        raise ValueError("need eps < x_hi")
    x = np.geomspace(eps, x_hi, n_points)
    vals = np.abs(h.eval(x))
    if np.any(vals == 0.0):
        # underflow to zero on the window rules out a two-sided power bound
        return CheckResult(
            name="quasi_homogeneity",
            statistics={"underflow": True, "band_ratio": math.inf},
            params={"filter": h.config(), "eps": eps, "x_hi": x_hi},
        )
    logx, logv = np.log(x), np.log(vals)
    slope, intercept = np.polyfit(logx, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * logx + intercept)) ** 2))
                  / (np.log(x_hi) - np.log(eps)))
    d_hat = -float(slope)
    normalized = vals * x**d_hat
    c1, c2 = float(np.min(normalized)), float(np.max(normalized))
    return CheckResult(
        name="quasi_homogeneity",
        statistics={"d_hat": d_hat, "C1": c1, "C2": c2, "band_ratio": c2 / c1,
                    "slope_residual": resid},
        params={"filter": h.config(), "eps": eps, "x_hi": x_hi},
    )


def derivative_decay_check(h: Filter, eps: float = 1.0, x_hi: float = 1000.0,
                           n_points: int = 256) -> CheckResult:
    """sup of |d^k h^p / dx^k| |x|^{pd + k} for p = +-1, k = 1, 2 stays in a band."""
    if h.d is None:
        qh = quasi_homogeneity_check(h, eps, x_hi)
        d = qh.statistics["d_hat"]
    else:
        d = h.d
    x = np.geomspace(eps, x_hi, n_points)
    stats, sups = {}, []
    for p in (-1, 1):
        for k in (1, 2):
            sup = float(np.max(np.abs(h.eval(x, power=p, order=k))
                               * x ** (p * d + k)))
            stats[f"sup_p{p}_k{k}"] = sup
            sups.append(sup)
    # identically zero derivatives satisfy the decay bound trivially
    nonzero = [s for s in sups if s > 0]
    band = max(nonzero) / min(nonzero) if nonzero else 1.0
    return CheckResult(
        name="derivative_decay",
        statistics={**stats, "band_ratio": float(band), "d": d},
        params={"filter": h.config(), "eps": eps, "x_hi": x_hi},
    )


def local_scaling_check(h: Filter, d: float, n_moments: float, eps: float = 1.0,
                        j_max: int = 10, n_points: int = 128) -> CheckResult:
    """Boundedness across levels of the rescaled low-frequency statistic.

    max over p, k, |x| <= eps of 2^{pjd} 2^{jk} |d^k h^p(2^j x)| |x|^{N-2}
    should stay within a fixed band as j grows.
    """
    if not n_moments >= 2:
        raise ValueError("requires N >= 2")
    nexp = min(float(n_moments), 64.0) - 2.0
    x = np.geomspace(eps * 1e-4, eps, n_points)
    per_j = []
    for j in range(1, j_max + 1):
        m = 0.0
        for p in (-1, 1):
            for k in (0, 1, 2):
                vals = np.abs(h.eval(2.0**j * x, power=p, order=k))
                m = max(m, float(np.max(2.0 ** (p * j * d) * 2.0 ** (j * k)
                                        * vals * x**nexp)))
        per_j.append(m)
    band = max(per_j) / min(per_j) if min(per_j) > 0 else math.inf
    return CheckResult(
        name="local_scaling",
        statistics={"per_j_max": per_j, "band_ratio": float(band)},
        params={"filter": h.config(), "d": d, "N": n_moments, "eps": eps,
                "j_max": j_max},
    )


def h3_periodicity_check(pair: FilterPair, x_hi: float = 20.0 * np.pi,
                         n_points: int = 4096) -> CheckResult:
    """Max |(h2/h1)(x + 2 pi) - (h2/h1)(x)| relative to max |h2/h1|."""
    # the 1/3 offset keeps sample points off multiples of pi, where
    # mst_approx style ratios have poles
    x = np.linspace(-x_hi, x_hi, n_points, endpoint=False) + 1.0 / 3.0
    r0 = pair.h2.eval(x) / pair.h1.eval(x)
    r1 = pair.h2.eval(x + 2.0 * np.pi) / pair.h1.eval(x + 2.0 * np.pi)
    scale = float(np.max(np.abs(r0)))
    if scale == 0.0:
        raise FilterEvalError("h2/h1 vanishes identically on the grid")
    defect = float(np.max(np.abs(r1 - r0)) / scale)
    return CheckResult(
        name="h3_periodicity",
        statistics={"relative_defect": defect},
        params={"pair": pair.config(), "x_hi": x_hi, "n_points": n_points},
    )
