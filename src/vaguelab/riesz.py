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

import numpy as np

from .family import FamilyBuilder, FamilyError, FamilyIndex
from .grids import SampledSpectrum, fold_periods, inverse_transform, l2_norm
from .mra import _wrap_to_pi
from .report import CheckResult

RESIDUAL_TOL = 1e-8  # eigenpair residual accepted by riesz_bounds
N_SYMBOL = 1024  # xi samples of the refinement determinant on [-pi, pi)
SUPPORT_TOL = 1e-8  # relative |Phi_{j+1}| below which residuals are skipped


class RieszError(ValueError):
    """Invalid truncation, or a section or bound that cannot be formed."""


@dataclass(frozen=True)
class Truncation:
    """Finite section: wavelet levels 0..J with shifts |k| <= K, plus an
    optional level-0 approximation block."""

    J: int
    K: int
    include_approximation: bool = True

    def __post_init__(self):
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


@dataclass(frozen=True)
class GramMatrix:
    matrix: np.ndarray
    index_map: tuple

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def hermitian_defect(self) -> float:
        """max|G - G^H|, i.e. 2 max|Im G_ii|: `gram` mirrors the upper triangle."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def _inner_products(builder: FamilyBuilder, left, right,
                    gens: dict | None = None) -> np.ndarray:
    """Un-normalized <m_a, m_b> for a in left, b in right (FamilyIndex lists).

    <m_{j,k}, m'_{j',k'}> equals the inverse transform of
    gen_{j} * conj(gen'_{j'}) evaluated at t = -(2^{-j}k - 2^{-j'}k'),
    which lands exactly on the conjugate time grid for dyadic shifts: one
    transform per generator pair (j, side, role), one indexed read per block.
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
    rows, cols = by_generator(left), by_generator(right)
    if gens is None:  # each generator evaluated once
        gens, _ = _generators(builder, {**rows, **cols})
    for a, (rows_a, shifts_a) in rows.items():
        ga = gens[a]
        for b, (rows_b, shifts_b) in cols.items():
            if left is right and rows_a[0] > rows_b[-1]:
                continue
            gb = gens[b]
            series = inverse_transform(SampledSpectrum(grid, ga * np.conj(gb)))
            lag = np.subtract.outer(shifts_a, shifts_b)
            pos = (-lag - series.t0) / series.dt
            ell = np.rint(pos).astype(int)
            off = (np.abs(pos - ell) > 1e-9) | (ell < 0) | (ell >= grid.n)
            if np.any(off):
                raise RieszError(f"lag {lag[off][0]} not on the conjugate "
                                 "time grid")
            out[np.ix_(rows_a, rows_b)] = series.values[ell]
    return out


def _generators(builder: FamilyBuilder, keys):
    """Generator values and l2 norms by (j, side, role) key, from one batch;
    scaled spectra (log_scale != 0) are refused."""
    gens, norms = {}, {}
    for key, (values, log_scale) in builder.generators(keys).items():
        if log_scale != 0.0:
            raise RieszError("scaled spectra are not supported in Gram sections")
        n = l2_norm(SampledSpectrum(builder.grid, values))
        if n <= 0.0:
            raise FamilyError(f"zero-norm generator {key}")
        gens[key], norms[key] = values, n
    return gens, norms


def gram(builder: FamilyBuilder, side: str, tr: Truncation) -> GramMatrix:
    """Conjugate-symmetric Gram matrix of the normalized truncated family."""
    idxs = tr.indices(side)
    keys = [(i.j, i.side, i.role) for i in idxs]
    gens, norms = _generators(builder, keys)
    norm = np.array([norms[k] for k in keys])
    scale = np.multiply.outer(norm, norm)
    raw = _inner_products(builder, idxs, idxs, gens)
    # parts divided apart, as Python's complex / float does: dividing a
    # complex array by a float array rounds differently
    normed = np.empty_like(raw)
    normed.real, normed.imag = raw.real / scale, raw.imag / scale
    # upper triangle as computed, its conjugate below and on the diagonal
    upper = np.triu(np.ones(raw.shape, dtype=bool), 1)
    return GramMatrix(np.where(upper, normed, normed.conj().T), tuple(idxs))


def riesz_bounds(g: GramMatrix):
    """(C1, C2) = sqrt of extreme Gram eigenvalues, with residual check."""
    m = 0.5 * (g.matrix + g.matrix.conj().T)
    vals, vecs = np.linalg.eigh(m)
    for pick in (0, -1):
        v = vecs[:, pick]
        res = float(np.linalg.norm(m @ v - vals[pick] * v))
        if res > RESIDUAL_TOL:
            raise RieszError(f"eigenpair residual {res:.2e} exceeds tolerance")
    lo, hi = float(vals[0]), float(vals[-1])
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))


def biorthogonality_defect(builder: FamilyBuilder, tr: Truncation) -> CheckResult:
    """Max |<dual_a, primal_b> - delta_ab| over the truncation.

    Computed on the un-normalized families, where the filters cancel
    exactly and the cross Gram reduces to the orthonormal one.
    """
    duals = tr.indices("dual")
    primals = tr.indices("primal")
    defect = np.abs(_inner_products(builder, duals, primals)
                    - np.eye(len(duals)))
    cross = np.not_equal.outer([i.role for i in duals],
                               [i.role for i in primals])
    worst = float(np.max(defect))
    worst_cross = float(np.max(defect, where=cross, initial=0.0))
    return CheckResult(
        name="biorthogonality_defect",
        passed=worst < 1e-6,
        statistics={"max_defect": worst, "max_cross_block_defect": worst_cross,
                    "dimension": len(duals)},
        params={**builder.config(), "J": tr.J, "K": tr.K,
                "include_approximation": tr.include_approximation},
    )


def bracket_sum(builder: FamilyBuilder) -> CheckResult:
    """min/max over one 2 pi period of sum_k |h1 phi^ (x + 2 pi k)|^2.

    The level-0 primal approximation generator is h1 phi^ on the build
    grid, so the sum is its squared modulus folded onto one period: the
    2 k_max = x_max / pi periods the grid holds, at n_samples = 2 pi / dx
    points each.
    """
    key = (0, "primal", "approximation")
    gens, _ = _generators(builder, [key])
    folded = fold_periods(builder.grid, np.abs(gens[key]) ** 2)
    total = np.sum(folded, axis=0)
    lower, upper = float(np.min(total)), float(np.max(total))
    n_periods, n_samples = folded.shape
    return CheckResult(
        name="bracket_sum",
        passed=lower > 1e-6 and upper < 1e6,
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


def refinement_identity(builder: FamilyBuilder, j: int) -> CheckResult:
    """Two-scale identity for the normalized transformed families.

    (a) Phi_j^ = U_j Phi_{j+1}^ and eta_j^ = V_j Phi_{j+1}^ pointwise,
        with U_j, V_j built as 2 pi periodic symbols of xi = x / 2^{j+1};
    (b) det M(xi) equals
        (|Phi#_{j+1}|^2 / (|Phi#_j| |Psi#_j|)) (h2/h1)(2^{j+1} xi) (-2 e^{-i xi});
    (c) min |det M| over xi in [-pi, pi).
    """
    wavelet, pair, grid = builder.wavelet, builder.pair, builder.grid
    keys = refinement_keys(j)
    gens, norms = _generators(builder, keys)
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

    passed = res_phi < 1e-9 and res_eta < 1e-9 and res_det < 1e-9
    return CheckResult(
        name="refinement_identity",
        passed=passed,
        statistics={"residual_phi": res_phi, "residual_eta": res_eta,
                    "residual_det": res_det, "min_abs_det": min_abs_det,
                    "excluded_points": excluded,
                    "norm_ratio_u": n_phi_j1 / n_phi_j,
                    "norm_ratio_v": n_phi_j1 / n_psi_j},
        params={"wavelet": wavelet.config(), "filters": pair.config(), "j": j},
    )
