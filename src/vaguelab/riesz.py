"""Finite-section Riesz analysis: Gram bounds, biorthogonality, the
bracket sum and the two-scale refinement identity.

Finite sections cannot certify an infinite Riesz basis; the contract here
is bounded and stable sections plus exact biorthogonality plus the
refinement identity, which is the numerically checkable content. Every
check reads its spectra from a FamilyBuilder. The bracket sum is the
Gramian fiber of the single level-0 approximation generator: its samples
on the build grid folded onto one 2 pi period (grids.fold_periods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .family import FamilyBuilder, FamilyError, FamilyIndex
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
                    gens: dict | None = None) -> np.ndarray:
    """Un-normalized <m_a, m_b> for a in left, b in right (FamilyIndex lists).

    <m_{j,k}, m'_{j',k'}> equals the inverse transform of
    gen_{j} * conj(gen'_{j'}) evaluated at t = -(2^{-j}k - 2^{-j'}k'),
    which lands exactly on the conjugate time grid for dyadic shifts. Only
    those lag samples are read: per generator pair (j, side, role) the
    product is folded onto one period of the lag lattice and transformed
    there (grids.inverse_transform_at), one indexed read per block.
    When left is right, blocks wholly below the diagonal are left zero.
    Generators come from _generators, so scaled spectra raise RieszError.
    """
    def by_generator(idxs):
        groups = {}
        for pos, i in enumerate(idxs):
            rows, shifts = groups.setdefault((i.j, i.side, i.role), ([], []))
            rows.append(pos)
            shifts.append(2.0 ** (-i.j) * i.k)
        return groups

    grid = builder.grid
    out = np.zeros((len(left), len(right)), dtype=complex)
    product = np.empty(grid.n, dtype=complex)  # every block's, in turn
    rows, cols = by_generator(left), by_generator(right)
    if gens is None:  # each generator evaluated once
        gens, _ = _generators(builder, {**rows, **cols})
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
            # conj(gb) ga, the order temporary elision gave ga * conj(gb)
            np.multiply(np.conjugate(gens[b], out=product), ga, out=product)
            out[np.ix_(rows_a, rows_b)] = inverse_transform_at(
                SampledSpectrum(grid, product), ell - grid.n // 2)
    return out


def _generators(builder: FamilyBuilder, keys, formed: dict | None = None):
    """Generator values and l2 norms by (j, side, role) key, from one batch;
    scaled spectra (log_scale != 0) are refused. formed, when given, maps
    keys to the (values, norm) of generators formed earlier: those are
    taken from it, and the ones formed here are added to it."""
    formed = {} if formed is None else formed
    keys = list(dict.fromkeys(keys))
    missing = [key for key in keys if key not in formed]
    for key, (values, log_scale) in builder.generators(missing).items():
        if log_scale != 0.0:
            raise RieszError("scaled spectra are not supported in Gram sections")
        n = l2_norm(SampledSpectrum(builder.grid, values))
        if n <= 0.0:
            raise FamilyError(f"zero-norm generator {key}")
        formed[key] = values, n
    return ({key: formed[key][0] for key in keys},
            {key: formed[key][1] for key in keys})


def _gram_matrix(raw: np.ndarray, idxs, norms: dict) -> GramMatrix:
    """The Gram matrix of idxs from the upper triangle of their raw inner
    products, each divided by the two generator norms."""
    norm = np.array([norms[i.j, i.side, i.role] for i in idxs])
    scale = np.multiply.outer(norm, norm)
    # parts divided apart, as Python's complex / float does: dividing a
    # complex array by a float array rounds differently
    normed = np.empty_like(raw)
    normed.real, normed.imag = raw.real / scale, raw.imag / scale
    # upper triangle as computed, its conjugate below and on the diagonal
    upper = np.triu(np.ones(raw.shape, dtype=bool), 1)
    return GramMatrix(np.where(upper, normed, normed.conj().T), tuple(idxs))


def gram(builder: FamilyBuilder, side: str, tr: Truncation) -> GramMatrix:
    """Conjugate-symmetric Gram matrix of the normalized truncated family.
    sections gives both sides' with the biorthogonality check from one
    generator pass."""
    idxs = tr.indices(side)
    gens, norms = _generators(builder, [(i.j, i.side, i.role) for i in idxs])
    raw = _inner_products(builder, idxs, idxs, gens)
    del gens  # the n-point generators are freed before the matrix work
    return _gram_matrix(raw, idxs, norms)


def sections(builder: FamilyBuilder, tr: Truncation,
             formed: dict | None = None):
    """({side: gram(builder, side, tr)}, biorthogonality_defect(builder,
    tr)) from one pass over the 2 (J + 2) generators: the upper triangle
    of the inner products of duals + primals holds the dual Gram, the
    dual x primal block and the primal Gram, each entry computed as those
    functions compute it. formed, when given, receives the generators'
    (values, norm) by (j, side, role), for bracket_sum and
    refinement_identity to read instead of forming them again."""
    duals, primals = tr.indices("dual"), tr.indices("primal")
    formed = {} if formed is None else formed
    for side_idxs in (primals, duals):  # gram's order: the same refusal
        _generators(builder, [(i.j, i.side, i.role) for i in side_idxs],
                    formed)
    idxs = duals + primals
    gens, norms = _generators(builder, [(i.j, i.side, i.role) for i in idxs],
                              formed)
    raw = _inner_products(builder, idxs, idxs, gens)
    m = len(duals)
    grams = {"dual": _gram_matrix(raw[:m, :m], duals, norms),
             "primal": _gram_matrix(raw[m:, m:], primals, norms)}
    return grams, biorthogonality_defect(builder, tr, raw[:m, m:])


def riesz_bounds(g: GramMatrix):
    """(C1, C2, residual): C1, C2 the square roots of the extreme Gram
    eigenvalues, residual the larger |G v - lambda v| of their eigenpairs,
    which report.RULES bounds before it trusts C1 and C2."""
    m = 0.5 * (g.matrix + g.matrix.conj().T)
    vals, vecs = np.linalg.eigh(m)
    residual = max(float(np.linalg.norm(m @ vecs[:, pick]
                                        - vals[pick] * vecs[:, pick]))
                   for pick in (0, -1))
    lo, hi = float(vals[0]), float(vals[-1])
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0)), residual


def biorthogonality_defect(builder: FamilyBuilder, tr: Truncation,
                           products: np.ndarray | None = None) -> CheckResult:
    """Max |<dual_a, primal_b> - delta_ab| over the truncation.

    Computed on the un-normalized families, where the filters cancel
    exactly and the cross Gram reduces to the orthonormal one. products
    are those inner products when already formed (sections forms them in
    the pass that gives both Grams); otherwise they are computed here.
    """
    duals, primals = tr.indices("dual"), tr.indices("primal")
    if products is None:
        products = _inner_products(builder, duals, primals)
    defect = np.abs(products - np.eye(len(duals)))
    cross = np.not_equal.outer([i.role for i in duals],
                               [i.role for i in primals])
    worst = float(np.max(defect))
    worst_cross = float(np.max(defect, where=cross, initial=0.0))
    return CheckResult(
        name="biorthogonality_defect",
        statistics={"max_defect": worst, "max_cross_block_defect": worst_cross,
                    "dimension": len(duals)},
        params={**builder.config(), "J": tr.J, "K": tr.K,
                "include_approximation": tr.include_approximation},
    )


def bracket_sum(builder: FamilyBuilder,
                formed: dict | None = None) -> CheckResult:
    """min/max over one 2 pi period of sum_k |h1 phi^ (x + 2 pi k)|^2.

    The level-0 primal approximation generator is h1 phi^ on the build
    grid, so the sum is its squared modulus folded onto one period: the
    2 k_max = x_max / pi periods the grid holds, at n_samples = 2 pi / dx
    points each. The generator is read from formed (_generators) if it
    is there.
    """
    key = (0, "primal", "approximation")
    gens, _ = _generators(builder, [key], formed)
    folded = fold_periods(builder.grid, np.abs(gens[key]) ** 2)
    total = np.sum(folded, axis=0)
    lower, upper = float(np.min(total)), float(np.max(total))
    n_periods, n_samples = folded.shape
    return CheckResult(
        name="bracket_sum",
        statistics={"lower": lower, "upper": upper, "k_max": n_periods // 2,
                    "n_samples": n_samples},
        params={"wavelet": builder.wavelet.config(),
                "h1": builder.pair.h1.config()},
    )


def refinement_keys(j: int) -> list:
    """Generator keys (j, side, role) that refinement_identity(_, j) reads:
    Phi_j, Phi_{j+1} and eta_j, all primal."""
    return [(j, "primal", "approximation"),
            (j + 1, "primal", "approximation"), (j, "primal", "wavelet")]


def refinement_identity(builder: FamilyBuilder, j: int,
                        formed: dict | None = None) -> CheckResult:
    """Two-scale identity for the normalized transformed families.

    (a) Phi_j^ = U_j Phi_{j+1}^ and eta_j^ = V_j Phi_{j+1}^ pointwise,
        with U_j, V_j built as 2 pi periodic symbols of xi = x / 2^{j+1};
    (b) det M(xi) equals
        (|Phi#_{j+1}|^2 / (|Phi#_j| |Psi#_j|)) (h2/h1)(2^{j+1} xi) (-2 e^{-i xi});
    (c) min |det M| over xi in [-pi, pi).

    The generators are read from formed (_generators) where they are
    there, and the ones formed here are added to it.
    """
    wavelet, pair, grid = builder.wavelet, builder.pair, builder.grid
    keys = refinement_keys(j)
    gens, norms = _generators(builder, keys, formed)
    n_phi_j, n_phi_j1, n_psi_j = (norms[key] for key in keys)

    def u_symbol(xi):
        xi = _wrap_to_pi(xi)
        return (n_phi_j1 / n_phi_j) * wavelet.u_hat(xi)

    def v_symbol(xi):
        xi = _wrap_to_pi(xi)
        ratio = pair.h2.eval(2.0 ** (j + 1) * xi) / pair.h1.eval(2.0 ** (j + 1) * xi)
        return (n_phi_j1 / n_psi_j) * ratio * wavelet.v_hat(xi)

    # (a): pointwise residuals on the working grid
    phi_j, phi_j1, eta_j = (gens[key] / norms[key] for key in keys)
    xi_grid = 2.0 ** (-(j + 1)) * grid.x
    on_support = np.abs(phi_j1) > SUPPORT_TOL * float(np.max(np.abs(phi_j1)))
    res_phi = float(np.max(np.abs(
        phi_j[on_support] - u_symbol(xi_grid[on_support]) * phi_j1[on_support])))
    res_eta = float(np.max(np.abs(
        eta_j[on_support] - v_symbol(xi_grid[on_support]) * phi_j1[on_support])))
    excluded = int(np.sum(~on_support))

    # (b), (c): determinant of the 2x2 refinement matrix on [-pi, pi)
    xi = (-np.pi + 2.0 * np.pi * np.arange(N_SYMBOL) / N_SYMBOL
          + 1.0 / 3.0 / N_SYMBOL)
    det = (u_symbol(xi) * v_symbol(xi + np.pi)
           - u_symbol(xi + np.pi) * v_symbol(xi))
    scale = n_phi_j1**2 / (n_phi_j * n_psi_j)
    h_ratio = pair.h2.eval(2.0 ** (j + 1) * xi) / pair.h1.eval(2.0 ** (j + 1) * xi)
    det_formula = scale * h_ratio * (-2.0 * np.exp(-1j * xi))
    res_det = float(np.max(np.abs(det - det_formula)) / np.max(np.abs(det_formula)))
    min_abs_det = float(np.min(np.abs(det)))

    return CheckResult(
        name="refinement_identity",
        statistics={"residual_phi": res_phi, "residual_eta": res_eta,
                    "residual_det": res_det, "min_abs_det": min_abs_det,
                    "excluded_points": excluded,
                    "norm_ratio_u": n_phi_j1 / n_phi_j,
                    "norm_ratio_v": n_phi_j1 / n_psi_j},
        params={"wavelet": wavelet.config(), "filters": pair.config(), "j": j},
    )
