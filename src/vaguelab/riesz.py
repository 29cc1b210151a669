"""Finite-section Riesz analysis: Gram bounds, biorthogonality, the
bracket sum and the two-scale refinement identity.

Finite sections cannot certify an infinite Riesz basis; the contract here
is bounded and stable sections plus exact biorthogonality plus the
refinement identity, which is the numerically checkable content. Every
check reads its spectra from a FamilyBuilder. Its filters are hermitian
(family.require_hermitian), so every member is real in time, its
spectrum is stored on x >= 0 (grids), and the Gram sections and the
biorthogonality block are real. The bracket sum is the Gramian fiber of
the single level-0 approximation generator: its samples on the build
grid folded onto one 2 pi period (grids.fold_periods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .family import FamilyBuilder, FamilyError, FamilyIndex
from .filters import FilterEvalError, FilterPair
from .grids import (FourierGrid, SampledSpectrum, fold_periods,
                    inverse_transform_at, l2_norm)
from .mra import _wrap_to_pi
from .report import CheckResult

N_SYMBOL = 1024  # xi samples of the refinement determinant on [-pi, pi)
SUPPORT_TOL = 1e-8  # relative |Phi_{j+1}| below which residuals are skipped


class RieszError(ValueError):
    """Invalid truncation, or a section or bound that cannot be formed."""


def check_level(J: int, grid: FourierGrid, radius: float = math.inf,
                shifts: bool = True) -> None:
    """Refuse J if the grid cuts its wavelet spectra, which reach |x| =
    2^(J+1) radius for a finite radius = WaveletSpec.phi_support_radius, or,
    with shifts, unless the shifts 2^-J k are multiples of dt = pi / x_max."""
    if math.isfinite(radius) and 2.0 ** (J + 1) * radius > grid.x_max:
        raise RieszError(f"level J = {J}: its spectra reach |x| = 2^(J+1) "
                         f"{radius:.6g}, beyond x_max = {grid.x_max:.6g}")
    steps = 2.0**-J / grid.dt
    if shifts and (steps < 1 or abs(steps - round(steps)) > 1e-9):
        raise RieszError(f"level J = {J}: shifts 2^-J k are off the "
                         f"conjugate time grid (dt = {grid.dt})")


@dataclass(frozen=True)
class Truncation:
    """Finite section: wavelet levels 0..J with shifts |k| <= K, plus an
    optional level-0 approximation block."""

    J: int
    K: int
    include_approximation: bool = True

    def __post_init__(self):
        for name, value in (("J", self.J), ("K", self.K)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise RieszError(f"{name} must be an integer, got {value!r}")
        if self.J < 0 or self.K < 1:
            raise RieszError(f"need J >= 0 and K >= 1, got J={self.J}, K={self.K}")

    def indices(self, side: str):
        out = []
        ks = range(-self.K, self.K + 1)
        if self.include_approximation:
            out.extend(FamilyIndex(0, k, side, "approximation") for k in ks)
        for j in range(self.J + 1):
            out.extend(FamilyIndex(j, k, side, "wavelet") for k in ks)
        return out

    def check_grid(self, grid: FourierGrid, radius: float = math.inf) -> None:
        """Refuse a level check_level refuses, or lags up to 2K that leave
        the conjugate time grid, as _inner_products does: 2K < n dt / 2."""
        check_level(self.J, grid, radius)
        if 2 * self.K >= grid.time_window / 2:
            raise RieszError(f"K = {self.K}: lags up to 2K leave the time "
                             f"window |t| < {grid.time_window / 2}")


@dataclass(frozen=True)
class GramMatrix:
    matrix: np.ndarray
    index_map: tuple

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _inner_products(builder: FamilyBuilder, left, right,
                    gens: dict) -> np.ndarray:
    """<m_a, m_b> for a in left, b in right (FamilyIndex lists) from the
    generator values gens by (j, side, role) key.

    <m_{j,k}, m'_{j',k'}> equals the inverse transform of
    gen_{j} * conj(gen'_{j'}) evaluated at t = -(2^{-j}k - 2^{-j'}k'),
    which lands exactly on the conjugate time grid for dyadic shifts. Only
    those lag samples are read: per generator pair (j, side, role) the
    product is formed on the shorter of the two generators' bands, folded
    onto one period of the lag lattice and transformed there
    (grids.inverse_transform_at), one indexed read per block. When left
    is right, blocks wholly below the diagonal are left zero.
    """
    def by_generator(idxs):
        groups = {}
        for pos, i in enumerate(idxs):
            rows, shifts = groups.setdefault((i.j, i.side, i.role), ([], []))
            rows.append(pos)
            shifts.append(2.0 ** (-i.j) * i.k)
        return groups

    grid = builder.grid
    out = np.zeros((len(left), len(right)))
    # every block's product in turn, 0 outside the band it was formed on
    product, written = np.zeros(grid.size, dtype=complex), 0
    rows, cols = by_generator(left), by_generator(right)
    for a, (rows_a, shifts_a) in rows.items():
        ga = gens[a]
        for b, (rows_b, shifts_b) in cols.items():
            if left is right and rows_a[0] > rows_b[-1]:
                continue
            lag = np.subtract.outer(shifts_a, shifts_b)
            pos = (-lag - grid.t0) / grid.dt
            ell = np.rint(pos).astype(int)
            off = (np.abs(pos - ell) > 1e-9) | (ell < 0) | (ell >= grid.n)
            if np.any(off):
                raise RieszError(f"lag {lag[off][0]} not on the conjugate "
                                 "time grid")
            band = min(builder.band(a[0], a[2]), builder.band(b[0], b[2]))
            product[band:written] = 0.0
            written = band
            # conj(gb) ga, the order temporary elision gave ga * conj(gb)
            np.multiply(np.conjugate(gens[b][:band], out=product[:band]),
                        ga[:band], out=product[:band])
            out[np.ix_(rows_a, rows_b)] = inverse_transform_at(
                SampledSpectrum(grid, product, band), ell - grid.n // 2)
    return out


def _generators(builder: FamilyBuilder, keys, formed: dict | None = None):
    """Unit-norm generator values and log l2 norms (log_scale included) by
    (j, side, role) key, from one batch; each norm and division reads only
    the generator's band. formed, when given, maps keys to the (values,
    log_norm) of generators formed earlier: those are taken from it, and
    the ones formed here are added to it."""
    formed = {} if formed is None else formed
    keys = list(dict.fromkeys(keys))
    missing = [key for key in keys if key not in formed]
    for key, (values, log_scale) in builder.generators(missing).items():
        band = builder.band(key[0], key[2])
        n = l2_norm(SampledSpectrum(builder.grid, values, band))
        if n <= 0.0:
            raise FamilyError(f"zero-norm generator {key}")
        values[:band] /= n
        formed[key] = values, math.log(n) + log_scale
    return ({key: formed[key][0] for key in keys},
            {key: formed[key][1] for key in keys})


def _gram_matrix(products: np.ndarray, idxs) -> GramMatrix:
    """The real symmetric Gram matrix of idxs from the upper triangle of
    the inner products of their unit generators, mirrored below the
    diagonal."""
    upper = np.triu(np.ones(products.shape, dtype=bool), 1)
    return GramMatrix(np.where(upper, products, products.T), tuple(idxs))


def gram(builder: FamilyBuilder, side: str, tr: Truncation) -> GramMatrix:
    """Real symmetric Gram matrix of the normalized truncated family.
    riesz_suite gives both sides' with the biorthogonality check from one
    generator pass."""
    idxs = tr.indices(side)
    gens, _ = _generators(builder, [(i.j, i.side, i.role) for i in idxs])
    products = _inner_products(builder, idxs, idxs, gens)
    del gens  # the n-point generators are freed before the matrix work
    return _gram_matrix(products, idxs)


def riesz_bounds(g: GramMatrix):
    """(C1, C2, residual): C1, C2 the square roots of the extreme Gram
    eigenvalues, residual the larger |G v - lambda v| of their eigenpairs,
    which report.RULES bounds before it trusts C1 and C2."""
    m = g.matrix  # real symmetric
    vals, vecs = np.linalg.eigh(m)
    residual = max(float(np.linalg.norm(m @ vecs[:, pick]
                                        - vals[pick] * vecs[:, pick]))
                   for pick in (0, -1))
    lo, hi = float(vals[0]), float(vals[-1])
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0)), residual


def biorthogonality_defect(builder: FamilyBuilder, tr: Truncation,
                           formed: dict | None = None,
                           products: np.ndarray | None = None) -> CheckResult:
    """Max |<dual_a, primal_b> - delta_ab| over the truncation.

    Computed on the un-normalized families, where the filters cancel
    exactly and the cross Gram reduces to the orthonormal one: the unit
    generators' products times e^{L_a + L_b}, L their log norms. formed and
    products are the generators and products riesz_suite has formed.
    """
    duals, primals = tr.indices("dual"), tr.indices("primal")
    gens, log_norms = _generators(
        builder, [(i.j, i.side, i.role) for i in duals + primals], formed)
    if products is None:
        products = _inner_products(builder, duals, primals, gens)
    log_sum = np.add.outer(*([log_norms[i.j, i.side, i.role] for i in idxs]
                             for idxs in (duals, primals)))
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(products * np.exp(log_sum) - np.eye(len(duals)))
    cross = np.not_equal.outer([i.role for i in duals],
                               [i.role for i in primals])
    worst = float(np.max(defect))
    worst_cross = float(np.max(defect, where=cross, initial=0.0))
    return CheckResult(
        name="biorthogonality_defect",
        statistics={"max_defect": worst, "max_cross_block_defect": worst_cross,
                    "max_log_norm_sum": float(np.max(log_sum)),
                    "dimension": len(duals)},
        params={**builder.config(), "J": tr.J, "K": tr.K,
                "include_approximation": tr.include_approximation},
    )


def bracket_sum(builder: FamilyBuilder,
                formed: dict | None = None) -> CheckResult:
    """min/max over one 2 pi period of sum_k |h1 phi^ (x + 2 pi k)|^2,
    divided by its mean over the period.

    The level-0 primal approximation generator is h1 phi^ on the build
    grid, so the sum is its squared modulus folded onto one period: the
    2 k_max = x_max / pi periods the grid holds, at n_samples = 2 pi / dx
    points each. Its modulus is even, so the fold of the periods x >= 0
    that its band touches at r plus that at -r mod P is the full one.
    Its mean is the generator's squared norm, 1 for the unit generator of
    _generators, so lower and upper are the Riesz bounds of the integer
    shifts of the normalized generator, free of any constant factor of
    h1. The generator is read from formed if it is there.
    """
    key = (0, "primal", "approximation")
    gens, _ = _generators(builder, [key], formed)
    grid, band = builder.grid, builder.band(0, "approximation")
    half = fold_periods(grid, np.abs(gens[key][:band]) ** 2, band).sum(axis=0)
    total = half + np.roll(half[::-1], 1)
    lower, upper = float(np.min(total)), float(np.max(total))
    return CheckResult(
        name="bracket_sum",
        statistics={"lower": lower, "upper": upper,
                    "k_max": grid.n // (2 * len(total)),
                    "n_samples": len(total)},
        params={"wavelet": builder.wavelet.config(),
                "h1": builder.pair.h1.config()},
    )


def refinement_keys(j: int) -> list:
    """Generator keys (j, side, role) that refinement_identity(_, j) reads:
    Phi_j, Phi_{j+1} and eta_j, all primal."""
    return [(j, "primal", "approximation"),
            (j + 1, "primal", "approximation"), (j, "primal", "wavelet")]


def _filter_ratio(pair: FilterPair, x: np.ndarray):
    """((h2/h1)(x), defined): defined marks the x where both filters
    evaluate, and the ratio is 0 where they do not. A filter refuses the
    whole x when one point is a pole, so its isolated poles are found by
    bisection."""
    try:
        return pair.h2.eval(x) / pair.h1.eval(x), np.ones(len(x), dtype=bool)
    except FilterEvalError:
        if len(x) == 1:
            return np.zeros(1, dtype=complex), np.zeros(1, dtype=bool)
    halves = (_filter_ratio(pair, x[:len(x) // 2]),
              _filter_ratio(pair, x[len(x) // 2:]))
    return tuple(map(np.concatenate, zip(*halves)))


def refinement_identity(builder: FamilyBuilder, j: int,
                        formed: dict | None = None) -> CheckResult:
    """Two-scale identity for the normalized transformed families.

    (a) Phi_j^ = U_j Phi_{j+1}^ and eta_j^ = V_j Phi_{j+1}^ pointwise,
        with U_j, V_j built as 2 pi periodic symbols of xi = x / 2^{j+1};
    (b) det M(xi) equals
        (|Phi#_{j+1}|^2 / (|Phi#_j| |Psi#_j|)) (h2/h1)(2^{j+1} xi) (-2 e^{-i xi});
    (c) min |det M| over xi in [-pi, pi).

    The residuals of (a) are formed on Phi_{j+1}^'s band of x >= 0 (every
    symbol is hermitian, so the max over all x is the same). They skip
    the points of the half grid where |Phi_{j+1}^| is below the support
    cut or V_j cannot be formed (a pole of h1 or h2); the two counts add
    up to excluded_points. The generators are read from formed
    (_generators) where they are there, and the ones formed here are
    added to it.
    """
    wavelet, pair, grid = builder.wavelet, builder.pair, builder.grid
    keys = refinement_keys(j)
    gens, log_norms = _generators(builder, keys, formed)
    band = builder.band(j + 1, "approximation")
    phi_j, phi_j1, eta_j = (gens[key][:band] for key in keys)
    log_j, log_j1, log_psi = (log_norms[key] for key in keys)
    ratio_u, ratio_v = map(float, np.exp(log_j1 - np.array([log_j, log_psi])))

    def u_symbol(xi):
        return ratio_u * wavelet.u_hat(_wrap_to_pi(xi))

    def v_symbol(xi):  # and where it is defined
        xi = _wrap_to_pi(xi)
        ratio, defined = _filter_ratio(pair, 2.0 ** (j + 1) * xi)
        return ratio_v * ratio * wavelet.v_hat(xi), defined

    # (a): pointwise residuals on the band of the working grid
    xi_grid = 2.0 ** (-(j + 1)) * grid.points(slice(0, band))
    kept = np.abs(phi_j1) > SUPPORT_TOL * float(np.max(np.abs(phi_j1)))
    v, defined = v_symbol(xi_grid[kept])
    kept[kept] = defined
    phi_j1 = phi_j1[kept]
    res_phi = float(np.max(np.abs(
        phi_j[kept] - u_symbol(xi_grid[kept]) * phi_j1)))
    res_eta = float(np.max(np.abs(eta_j[kept] - v[defined] * phi_j1)))
    excluded = grid.size - int(np.sum(kept))

    # (b), (c): determinant of the 2x2 refinement matrix on [-pi, pi)
    xi = (-np.pi + 2.0 * np.pi * np.arange(N_SYMBOL) / N_SYMBOL
          + 1.0 / 3.0 / N_SYMBOL)
    det = (u_symbol(xi) * v_symbol(xi + np.pi)[0]
           - u_symbol(xi + np.pi) * v_symbol(xi)[0])
    h_ratio = _filter_ratio(pair, 2.0 ** (j + 1) * xi)[0]
    det_formula = ratio_u * ratio_v * h_ratio * (-2.0 * np.exp(-1j * xi))
    res_det = float(np.max(np.abs(det - det_formula)) / np.max(np.abs(det_formula)))
    min_abs_det = float(np.min(np.abs(det)))

    return CheckResult(
        name="refinement_identity",
        statistics={"residual_phi": res_phi, "residual_eta": res_eta,
                    "residual_det": res_det, "min_abs_det": min_abs_det,
                    "excluded_points": excluded,
                    "norm_ratio_u": ratio_u, "norm_ratio_v": ratio_v},
        params={"wavelet": wavelet.config(), "filters": pair.config(), "j": j},
    )


def riesz_suite(builder: FamilyBuilder, tr: Truncation, levels) -> list:
    """verify-riesz's checks in report order: riesz_bounds_primal and
    _dual, biorthogonality_defect, bracket_sum and refinement_identity_j{j}
    for j in levels. One fill makes every mother they read. One upper
    triangle of the duals + primals inner products holds both Grams and
    the biorthogonality block; it and the Grams are freed before
    bracket_sum runs. Each generator is formed once and dropped after its
    last reader (level j + 1 reads the Phi_{j+1} of level j).
    """
    duals, primals = tr.indices("dual"), tr.indices("primal")
    idxs = duals + primals
    keys = [(i.j, i.side, i.role) for i in idxs]
    reads = ([[(0, "primal", "approximation")]]
             + [refinement_keys(j) for j in levels])
    builder.fill(keys + [key for read in reads for key in read])
    formed: dict = {}
    products = _inner_products(builder, idxs, idxs,
                               _generators(builder, keys, formed)[0])
    m = len(duals)
    checks = []
    for side, part in (("primal", slice(m, None)), ("dual", slice(m))):
        g = _gram_matrix(products[part, part], tr.indices(side))
        c1, c2, residual = riesz_bounds(g)
        checks.append(CheckResult(
            "riesz_bounds",
            statistics={"C1": c1, "C2": c2, "eigen_residual": residual,
                        "dimension": g.dimension},
            params={"J": tr.J, "K": tr.K}))
        checks[-1].name += f"_{side}"
    checks.append(biorthogonality_defect(builder, tr, formed,
                                         products[:m, m:]))
    del products, g

    def release(done):  # drop what no check from reads[done] on reads
        for key in set(formed).difference(*reads[done:]):
            del formed[key]

    release(0)
    checks.append(bracket_sum(builder, formed))
    for done, j in enumerate(levels, start=1):
        release(done)
        checks.append(refinement_identity(builder, j, formed))
        checks[-1].name += f"_j{j}"
    return checks
