"""Test-only rescaled members and the norm band built on them.

A rescaled member is the k = 0 member on a grid whose x_max is the base
grid's times 2^j, so that the relative frequency resolution over its
support does not depend on j and norms stay accurate at large j.
"""

import math
from types import SimpleNamespace

from vaguelab.family import (FamilyBuilder, FamilyError, FamilyIndex,
                             FamilyMember)
from vaguelab.filters import quasi_homogeneity_check
from vaguelab.grids import SampledSpectrum, make_grid
from vaguelab.report import judge

# a test-only check, judged by the package's verdict function
NORM_BAND = (("band_primal", "<", 10.0), ("band_dual", "<", 10.0))


def rescaled_member(builder: FamilyBuilder, j: int, side: str,
                    role: str) -> FamilyMember:
    """k = 0 member of (j, side, role) on the base grid widened by 2^j: the
    base-grid mother in y = 2^{-j} x times the filter, relabelled."""
    if j > 30:
        raise FamilyError(f"j={j} exceeds the supported range (j <= 30)")
    idx = FamilyIndex(j, 0, side, role)
    # the builder's own evaluator, so the cached base-grid mother is read
    vals, log_scale = builder._evaluate(j, side, role, builder.grid,
                                        2.0 ** (-j / 2.0))
    grid = make_grid(builder.grid.x_max * 2.0**j, builder.grid.n)
    return FamilyMember(idx, SampledSpectrum(grid, vals), log_scale)


def norm_band(builder: FamilyBuilder, j_range=range(0, 9)) -> SimpleNamespace:
    """2^{jd}-compensated norms of primal/dual wavelet generators across j,
    as a check's name, statistics, params and verdict.

    r_j = ||primal_j|| 2^{jd} and r'_j = ||dual_j|| 2^{-jd} should each stay
    in a fixed band when |h2| is quasi-homogeneous with exponent d.
    """
    h2 = builder.pair.h2
    if h2.d is not None:
        d = h2.d
    else:
        d = quasi_homogeneity_check(h2).statistics.get("d_hat", 0.0)
    log2 = math.log(2.0)
    log_r, log_rp = [], []
    for j in j_range:
        primal = rescaled_member(builder, j, "primal", "wavelet")
        dual = rescaled_member(builder, j, "dual", "wavelet")
        log_r.append(primal.log_norm + j * d * log2)
        log_rp.append(dual.log_norm - j * d * log2)

    def _band(vals):
        spread = max(vals) - min(vals)
        try:
            return math.exp(spread)
        except OverflowError:
            return math.inf
    statistics = {
        "d": d,
        "log_r_primal": log_r,
        "log_r_dual": log_rp,
        "band_primal": _band(log_r),
        "band_dual": _band(log_rp),
    }
    params = {"wavelet": builder.wavelet.config(),
              "filters": builder.pair.config(),
              "j_range": [min(j_range), max(j_range)]}
    passed, _ = judge(NORM_BAND, statistics, params)
    return SimpleNamespace(name="norm_band", statistics=statistics,
                           params=params, passed=passed)
