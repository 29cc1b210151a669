"""Orthonormal multiresolution ingredients: Meyer and Daubechies families.

Everything is evaluated in the Fourier domain.  The scaling filter u and the
wavelet filter v(x) = e^{-ix} conj(u(x + pi)) tie phi and psi across scales:

    phi_hat(x) = u_hat(x/2) phi_hat(x/2) / sqrt(2)
    psi_hat(x) = v_hat(x/2) phi_hat(x/2) / sqrt(2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .report import CheckResult

SQRT2 = math.sqrt(2.0)
MEYER_PHI_RADIUS = 4.0 * np.pi / 3.0  # meyer_phi_hat is 0 for |x| >= this
MEYER_SUPPORT_RADIUS = 8.0 * np.pi / 3.0


def meyer_nu(s):
    """Degree-7 smooth ramp: nu(s) = s^4 (35 - 84 s + 70 s^2 - 20 s^3)."""
    s = np.clip(s, 0.0, 1.0)
    return s**4 * (35.0 - 84.0 * s + 70.0 * s**2 - 20.0 * s**3)


def meyer_phi_hat(x):
    """Meyer scaling function in the Fourier domain (real, even, in [0, 1])."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    out[ax <= 2.0 * np.pi / 3.0] = 1.0
    mid = (ax > 2.0 * np.pi / 3.0) & (ax < MEYER_PHI_RADIUS)
    # cos(pi/2 nu(s)) = sin(pi/2 nu(1-s)): the complementary form stays
    # accurate at the outer support edge where nu(s) -> 1
    out[mid] = np.sin(0.5 * np.pi * meyer_nu(2.0 - 3.0 * ax[mid] / (2.0 * np.pi)))
    return out if out.ndim else float(out)


def meyer_psi_abs(x):
    """Modulus of the Meyer wavelet transform (even, supported on 2pi/3 <= |x| <= 8pi/3)."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    lo = (ax >= 2.0 * np.pi / 3.0) & (ax <= 4.0 * np.pi / 3.0)
    out[lo] = np.sin(0.5 * np.pi * meyer_nu(3.0 * ax[lo] / (2.0 * np.pi) - 1.0))
    hi = (ax > 4.0 * np.pi / 3.0) & (ax <= 8.0 * np.pi / 3.0)
    # complementary form: accurate where nu's argument approaches 1
    out[hi] = np.sin(0.5 * np.pi * meyer_nu(2.0 - 3.0 * ax[hi] / (4.0 * np.pi)))
    return out if out.ndim else float(out)


def _wrap_to_pi(x):
    """Map to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def meyer_u_hat(x):
    """2pi-periodic scaling filter: u_hat(x) = sqrt(2) phi_hat(2x) on [-pi, pi)."""
    return SQRT2 * meyer_phi_hat(2.0 * _wrap_to_pi(x))


@lru_cache(maxsize=16)
def daubechies_coefficients(n_moments: int) -> np.ndarray:
    """Length-2N scaling coefficients with sum sqrt(2), by spectral factorization.

    |u_hat(x)|^2 = 2 cos^{2N}(x/2) P(sin^2(x/2)) with
    P(y) = sum_{k<N} binom(N-1+k, k) y^k; the minimum-phase square root is
    taken by keeping the roots inside the unit circle.
    """
    N = int(n_moments)
    if not 2 <= N <= 10:
        raise ValueError(f"vanishing-moment count must be in 2..10, got {N}")
    p = np.array([math.comb(N - 1 + k, k) for k in range(N)], dtype=float)
    # roots of P(y), highest degree first for numpy.roots
    yroots = np.roots(p[::-1])
    poly = np.array([1.0 + 0.0j])
    for y in yroots:
        # y = (2 - z - 1/z) / 4  =>  z^2 - (2 - 4y) z + 1 = 0
        zpair = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        z0 = zpair[np.argmin(np.abs(zpair))]
        poly = np.convolve(poly, np.array([1.0, -z0])) / (1.0 - z0)
    for _ in range(N):
        poly = np.convolve(poly, np.array([0.5, 0.5]))
    h = np.real(poly) * SQRT2
    # fix overall sign so the filter mass is positive
    if h.sum() < 0:
        h = -h
    return h


def _imul(product, factor):
    """product *= factor in place, rounded as inside a longer array: NumPy
    multiplies one complex element in place in its scalar reduction loop,
    which rounds differently from its vector loop."""
    if product.size == 1:
        product[...] = product * factor
    else:
        product *= factor


def _trig_poly(coeffs, x, first=0):
    """sum_n c_n e^{-i(n + first)x} for real c_n and first 0 or -1, by
    Horner in z = e^{-ix}; first = -1 multiplies by conj(z) at the end.
    NumPy's cos and sin are even and odd bit for bit, so the value at -x
    is the conjugate of that at x, bit for bit."""
    x = np.asarray(x, dtype=float)
    z = np.empty(x.shape, dtype=complex)
    np.cos(x, out=z.real)
    np.negative(np.sin(x, out=z.imag), out=z.imag)
    out = np.full(x.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        _imul(out, z)
        out += c
    if first == -1:
        _imul(out, np.conjugate(z, out=z))
    return out


def daubechies_u_hat(n_moments: int, x):
    return _trig_poly(daubechies_coefficients(n_moments), x)


@lru_cache(maxsize=16)
def _alternating_coefficients(n_moments: int) -> np.ndarray:
    """(-1)^n h_n, the taps of v_hat."""
    h = daubechies_coefficients(n_moments).copy()
    h[1::2] *= -1.0
    return h


def daubechies_v_hat(n_moments: int, x):
    """v_hat(x) = e^{-ix} conj(u_hat(x + pi)) = sum_n (-1)^n h_n e^{i(n-1)x}:
    one Horner sum in w = e^{ix} over the 2N alternating taps, times
    conj(w), so one cos/sin pair per point and, at -x, the conjugate of
    the value at x bit for bit."""
    return _trig_poly(_alternating_coefficients(n_moments),
                      np.negative(x, dtype=float), -1)


# Taylor terms of log(u_hat / sqrt 2) kept in a product tail; the tail's
# argument is below 2^-5, where the first term left out is below 1e-22
# for every N in 2..10
TAIL_TERMS = 14


@lru_cache(maxsize=16)
def _log_factor_taylor(n_moments: int) -> tuple:
    """l_0..l_{TAIL_TERMS-1} with log(u_hat(y) / sqrt 2) = sum_p l_p s^p,
    s = -i y, near y = 0.

    With the taps a_n = h_n / sqrt 2 and their midpoint c,
    u_hat / sqrt 2 = e^{cs} V(s), V(s) = sum_n a_n e^{(n - c)s}, whose
    Taylor coefficients v_k = sum_n a_n (n - c)^k / k! are summed exactly
    (fsum); the centred moments stay small where raw ones lose digits.
    log V follows from k v_k = sum_{j=1..k} j l_j v_{k-j}, and
    l_0 = log V(0) = log(sum_n a_n), about 1e-14 for N = 10, is kept.
    """
    a = daubechies_coefficients(n_moments) / SQRT2
    c = (len(a) - 1) / 2.0
    v = [math.fsum(an * (n - c)**k for n, an in enumerate(a))
         / math.factorial(k) for k in range(TAIL_TERMS)]
    logs = [math.log1p(math.fsum([*a, -1.0]))]
    for k in range(1, TAIL_TERMS):
        logs.append((k * v[k] - math.fsum(j * logs[j] * v[k - j]
                                          for j in range(1, k)))
                    / (k * v[0]))
    logs[1] += c
    return tuple(logs)


@lru_cache(maxsize=256)
def _tail_coefficients(n_moments: int, count: int):
    """Real Horner coefficients, in w = y^2, of the exponent
    sum_p c_p (-iy)^p of count consecutive factors
    prod_{i<count} u_hat(y / 2^i) / sqrt 2, c_p = l_p sum_{i<count} 2^{-ip}:
    (even, odd) with real part sum_k even_k w^k and imaginary part
    y sum_k odd_k w^k."""
    c = [lp * math.fsum(2.0**(-i * p) for i in range(count))
         for p, lp in enumerate(_log_factor_taylor(n_moments))]
    # (-i)^p is 1, -i, -1, i, ... in turn
    even = [ck if k % 2 == 0 else -ck for k, ck in enumerate(c[0::2])]
    odd = [-ck if k % 2 == 0 else ck for k, ck in enumerate(c[1::2])]
    return even, odd


def _horner(coeffs, w):
    out = np.full(w.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= w
        out += c
    return out


def _product_tail(n_moments: int, y, count: int):
    """prod_{i<count} u_hat(y / 2^i) / sqrt 2 for |y| < 2^-5, as one
    exponential of the factors' summed log series."""
    even, odd = _tail_coefficients(n_moments, count)
    w = y * y
    re = _horner(even, w)
    im = _horner(odd, w)
    im *= y
    del w
    tail = np.empty(y.shape, dtype=complex)
    np.cos(im, out=tail.real)
    np.sin(im, out=tail.imag)
    np.exp(re, out=re)
    tail.real *= re
    tail.imag *= re
    return tail


def _runs(keys):
    """(firsts, stops, keys) arrays of the maximal runs of equal keys in a
    non-empty 1-D array."""
    firsts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return firsts, np.append(firsts[1:], keys.size), keys[firsts]


def _stretches(runs, keys):
    """(start, stop, key) of each maximal stretch of consecutive runs whose
    keys (one per run) are equal."""
    starts, stops, _ = runs
    firsts, ends, values = _runs(keys)
    return zip(starts[firsts].tolist(), stops[ends - 1].tolist(),
               values.tolist())


def daubechies_phi_hat_levels(n_moments: int, x, levels, depth: int = 40):
    """[phi_hat(x / 2^l) for l in levels], each the truncated product
    prod_{k=1..depth} u_hat(x / 2^{l+k}) / sqrt(2).

    A point x takes the factor of exponent m = l + k directly only for
    m <= m0(x) = max(e + 4, 0), e the exponent of x (np.frexp; e = -inf
    at x = 0), so |x / 2^{m0}| < 2^-4. Its other factors, of exponents
    lo = max(m0 + 1, l + 1) .. l + depth, are one closed-form tail: the
    exponential of their summed log series (_product_tail, accurate to
    roundoff for |x / 2^lo| < 2^-5). So a point costs about log2 |x| + 4
    factors, not depth, and depth still counts every factor, the tail's
    included.

    x / 2^m is exact in floating point, so a direct factor is the same for
    every level whose product contains it: it is evaluated once and
    multiplied into each of them. The split depends on the point alone,
    and every operation is elementwise over runs of equal m0 (one or two
    per m0 where |x| is monotone, as in the blocks of a mother fill), so
    each value is bit-identical to that of the level evaluated on its own,
    of phi_hat(x / 2^l), and of the same point in any other array. NumPy's
    cos and sin are even and odd bit for bit, the taps are real and m0 is
    even in x, so each factor, each tail, and the product at -x is the
    conjugate of that at x, bit for bit: phi^ is hermitian, as the half
    spectra of grids take it to be.
    """
    if depth < 20:
        raise ValueError(f"product depth must be >= 20, got {depth}")
    x = np.asarray(x, dtype=float)
    levels = list(levels)
    flat = x.reshape(-1)
    h = daubechies_coefficients(n_moments) / SQRT2
    m0 = np.frexp(flat)[1]
    m0 += 4
    np.maximum(m0, 0, out=m0)
    m0[flat == 0.0] = 0
    out = [np.ones(flat.shape, dtype=complex) for _ in levels]
    if flat.size == 0:
        return [product.reshape(x.shape) for product in out]
    runs = _runs(m0)
    exponents = runs[2]
    for m in range(min(levels) + 1,
                   min(max(levels) + depth, int(exponents.max())) + 1):
        into = [product for level, product in zip(levels, out)
                if level < m <= level + depth]
        for start, stop, direct in _stretches(runs, exponents >= m):
            if not (direct and into):
                continue
            factor = _trig_poly(h, flat[start:stop] / 2.0**m)
            for product in into:
                _imul(product[start:stop], factor)
    for level, product in zip(levels, out):
        for start, stop, lo in _stretches(
                runs, np.maximum(exponents + 1, level + 1)):
            count = level + depth + 1 - lo
            if count > 0:
                _imul(product[start:stop], _product_tail(
                    n_moments, flat[start:stop] / 2.0**lo, count))
    return [product.reshape(x.shape) for product in out]


def daubechies_phi_hat(n_moments: int, x, depth: int = 40):
    """Truncated infinite product prod_{j=1..depth} u_hat(x / 2^j) / sqrt(2)."""
    return daubechies_phi_hat_levels(n_moments, x, (0,), depth)[0]


@dataclass(frozen=True)
class DecayProfile:
    """Fourier-decay margins (zeta for phi, eta for psi)."""

    zeta: float = 0.1
    eta: float = 0.1

    def __post_init__(self):
        if self.zeta <= 0 or self.eta <= 0:
            raise ValueError("decay margins must be positive")


@dataclass(frozen=True)
class WaveletSpec:
    """An orthonormal MRA exposing phi_hat, psi_hat, u_hat, v_hat and metadata.

    kind is "meyer" or "daubechies"; for Meyer the vanishing-moment count is
    infinite (psi_hat vanishes identically near 0) and phi_hat is exactly 0
    for |x| >= 4 pi / 3, so psi_hat for |x| >= 8 pi / 3; for Daubechies
    that radius is infinite.
    """

    kind: str
    n_moments: float = math.inf
    depth: int = 40
    decay: DecayProfile = DecayProfile()

    def __post_init__(self):
        if self.kind not in ("meyer", "daubechies"):
            raise ValueError(f"unknown wavelet kind {self.kind!r}")
        if self.kind == "daubechies":
            if not (isinstance(self.n_moments, int) and 2 <= self.n_moments <= 10):
                raise ValueError("daubechies requires integer n_moments in 2..10")
        # a bool is an int below 20
        if not (isinstance(self.depth, int) and self.depth >= 20):
            raise ValueError(f"product depth must be an integer >= 20, got "
                             f"{self.depth!r}")

    @property
    def phi_support_radius(self) -> float:
        """R with phi_hat(x) exactly 0 wherever |x| >= R, so psi_hat(x),
        formed from phi_hat(x / 2), wherever |x| >= 2 R."""
        return MEYER_PHI_RADIUS if self.kind == "meyer" else math.inf

    def u_hat(self, x):
        if self.kind == "meyer":
            return np.asarray(meyer_u_hat(x), dtype=complex)
        return daubechies_u_hat(self.n_moments, x)

    def v_hat(self, x):
        """e^{-ix} conj(u_hat(x + pi)); for Daubechies the one polynomial
        of daubechies_v_hat."""
        if self.kind == "daubechies":
            return daubechies_v_hat(self.n_moments, x)
        x = np.asarray(x, dtype=float)
        return np.exp(-1j * x) * np.conj(self.u_hat(x + np.pi))

    def phi_hat_levels(self, x, levels):
        """[phi_hat(x / 2^l) for l in levels]; Daubechies levels share the
        factors of one product pass (daubechies_phi_hat_levels)."""
        if self.kind == "meyer":
            x = np.asarray(x, dtype=float)
            return [np.asarray(meyer_phi_hat(x / 2.0**level), dtype=complex)
                    for level in levels]
        return daubechies_phi_hat_levels(self.n_moments, x, levels,
                                         self.depth)

    def phi_hat(self, x):
        return self.phi_hat_levels(x, (0,))[0]

    def psi_hat(self, x, phi_half=None):
        """v_hat(x/2) phi_hat(x/2) / sqrt(2); phi_half, when given, is
        phi_hat(x / 2) already evaluated."""
        half = np.asarray(x, dtype=float) / 2.0
        if phi_half is None:
            phi_half = self.phi_hat(half)
        return self.v_hat(half) * phi_half / SQRT2

    def config(self) -> dict:
        if self.kind == "meyer":
            return {"kind": "meyer"}
        return {"kind": "daubechies", "n": int(self.n_moments),
                "depth": self.depth}

    @classmethod
    def from_config(cls, cfg: dict) -> "WaveletSpec":
        cfg = dict(cfg)
        kind = cfg.pop("kind")
        if kind == "meyer":
            spec = cls("meyer")
        elif kind == "daubechies":
            spec = cls("daubechies", n_moments=cfg.pop("n"),
                       depth=cfg.pop("depth", 40))
        else:
            raise ValueError(f"unknown wavelet kind {kind!r}")
        if cfg:
            raise ValueError(f"unknown wavelet config keys: {sorted(cfg)}")
        return spec

    def check_moment_condition(self, d: float) -> None:
        """Pairing-time guard: N >= max(2, -1/2 + |d|)."""
        needed = max(2.0, -0.5 + abs(d))
        if self.n_moments < needed:
            raise ValueError(
                f"wavelet has {self.n_moments} vanishing moments; "
                f"pairing with exponent d={d} needs at least {needed}"
            )


def check_cmf(w: WaveletSpec, n_points: int = 4096) -> CheckResult:
    """Max defect of |u(x)|^2 + |u(x + pi)|^2 = 2 over a uniform grid."""
    x = np.linspace(-np.pi, np.pi, n_points, endpoint=False)
    u0 = w.u_hat(x)
    u1 = w.u_hat(x + np.pi)
    defect = float(np.max(np.abs(np.abs(u0) ** 2 + np.abs(u1) ** 2 - 2.0)))
    return CheckResult(
        name="cmf_identity",
        statistics={"max_defect": defect},
        params={"wavelet": w.kind, "n_points": n_points},
    )


def _daubechies_u_abs_near_pi(n_moments: int, y):
    """|u_hat(pi + y)| by the closed-form magnitude, stable for tiny y.

    |u_hat(pi + y)|^2 = 2 sin^{2N}(y/2) P(cos^2(y/2)); the direct coefficient
    sum loses all significant digits once the value drops below ~1e-16.
    """
    N = int(n_moments)
    y = np.asarray(y, dtype=float)
    p = np.array([math.comb(N - 1 + k, k) for k in range(N)], dtype=float)
    c2 = np.cos(y / 2.0) ** 2
    pv = np.polyval(p[::-1], c2)
    return np.sqrt(2.0 * pv) * np.abs(np.sin(y / 2.0)) ** N


def vanishing_moment_order(w: WaveletSpec) -> float:
    """Slope of log |psi_hat(x)| against log |x| on x in [1e-4, 1e-2].

    Meyer returns math.inf (psi_hat vanishes identically near 0).
    """
    if w.kind == "meyer":
        return math.inf
    x = np.logspace(-4, -2, 64)
    # |psi_hat(x)| = |u_hat(x/2 + pi)| |phi_hat(x/2)| / sqrt(2)
    mag = (_daubechies_u_abs_near_pi(w.n_moments, x / 2.0)
           * np.abs(daubechies_phi_hat(w.n_moments, x / 2.0, w.depth)) / SQRT2)
    slope = np.polyfit(np.log(x), np.log(mag), 1)[0]
    return float(round(slope))


def check_w3(w: WaveletSpec, n_points: int = 2048) -> CheckResult:
    """inf |phi_hat| on the congruent set K = [-pi, pi]."""
    x = np.linspace(-np.pi, np.pi, n_points)
    inf_val = float(np.min(np.abs(w.phi_hat(x))))
    return CheckResult(
        name="phi_lower_bound_on_K",
        statistics={"inf_abs_phi": inf_val},
        params={"wavelet": w.kind, "K": "[-pi, pi]", "n_points": n_points},
    )


def _envelope_slope(x, vals, n_bins: int = 24):
    """Log-log slope of the decay envelope, fitted on dyadic-bin maxima."""
    edges = np.geomspace(x[0], x[-1], n_bins + 1)
    xs, ms = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (x >= lo) & (x < hi)
        if not np.any(sel):
            continue
        m = np.max(vals[sel])
        if m > 0:
            xs.append(np.sqrt(lo * hi))
            ms.append(m)
    if len(xs) < 4:
        return -math.inf  # decayed to exactly zero: compact support
    return float(np.polyfit(np.log(xs), np.log(ms), 1)[0])


def check_w4(w: WaveletSpec, d: float, x_hi: float = 64.0 * np.pi,
             fd_step: float = 1e-3) -> CheckResult:
    """Fourier-decay margins: phi needs |d|+1/2+zeta, psi derivatives |d|+2+eta.

    The decay envelope slope is fitted on dyadic bins and compared to the
    required exponent (report.RULES), with -inf for a spectrum that is 0
    on x >= 4 pi (Meyer); derivatives of psi_hat come from centered finite
    differences.
    """
    need_phi = abs(d) + 0.5 + w.decay.zeta
    need_psi = abs(d) + 2.0 + w.decay.eta
    x = np.geomspace(4.0 * np.pi, x_hi, 4096)
    phi_vals = np.abs(w.phi_hat(x))
    p0, p_up, p_dn = (w.psi_hat(y) for y in (x, x + fd_step, x - fd_step))
    psi0 = np.abs(p0)
    psi1 = np.abs(p_up - p_dn) / (2 * fd_step)
    psi2 = np.abs(p_up - 2 * p0 + p_dn) / fd_step**2
    phi_slope = _envelope_slope(x, phi_vals)
    psi_slope = max(_envelope_slope(x, v) for v in (psi0, psi1, psi2))
    sup_phi = float(np.max(phi_vals * (1.0 + x) ** need_phi))
    sup_psi = float(max(np.max(v * (1.0 + x) ** need_psi) for v in (psi0, psi1, psi2)))
    return CheckResult(
        name="fourier_decay_margins",
        statistics={"phi_slope": phi_slope, "psi_slope": psi_slope,
                    "required_phi": need_phi, "required_psi": need_psi,
                    "sup_weighted_phi": sup_phi, "sup_weighted_psi": sup_psi},
        params={"wavelet": w.kind, "n": getattr(w, "n_moments", None), "d": d,
                "zeta": w.decay.zeta, "eta": w.decay.eta, "x_hi": x_hi},
    )
