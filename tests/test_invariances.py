"""Exact invariances of the normalized families: an oracle that needs no
reference values and covers every check on both wavelets.

- (a) Scaling: a constant factor c in h1 and h2 changes no verdict and no
  statistic. Only the simulated paths scale with c, by design. Nor does
  the log scale a filter stores its values with change a Riesz statistic.
- (b) Dilation: the level-j statistics of h(2x) are those of h at j + 1.
- (c) Side swap: the dual family of h is the primal family of 1/conj(h).
- (d) Homogeneity: for the homogeneous h2 = (ix)^d every level statistic
  is the same at every level.

All run at the scorecard's sizes (tests/scorecard_sizes.py).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from vaguelab import cli
from vaguelab.family import FamilyBuilder
from vaguelab.filters import (FilterPair, FractionalFilter, OUFilter,
                              RationalFilter, UnitFilter)
from vaguelab.riesz import Truncation, riesz_suite
from vaguelab.vaguelet import VagueletParams, synthesis_bound, vaguelet_suite

from scorecard_sizes import SIZES

WAVELETS = {"meyer": {"kind": "meyer"},
            "db4": {"kind": "daubechies", "n": 4}}
LEVEL_STATISTICS = ("per_j", "per_j_refined")


def _rational_pair(numer, denom) -> FilterPair:
    h = RationalFilter(numer, denom)
    return FilterPair(h, h)


def _summary(wavelet: str, c: float) -> dict:
    """summary.json of `vaguelab all` with h1 = h2 = c / (1 + x^2)."""
    h = {"kind": "rational", "numer": [c], "denom": [1.0, 0.0, 1.0]}
    document = {"wavelet": WAVELETS[wavelet], "filters": {"h1": h, "h2": h},
                **SIZES}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(document))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["all", "--config", str(config), "--out", str(out)])
        return json.loads((out / "summary.json").read_text())


def _close(a, b) -> bool:
    """Equal statistics: 1e-12 relative, or 1e-14 absolute for residuals
    and defects, which are roundoff of O(1) quantities at any scale."""
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)
    return a == b


@pytest.mark.parametrize("wavelet", WAVELETS)
def test_a_constant_factor_changes_no_statistic(wavelet):
    reference = _summary(wavelet, 1.0)["checks"]
    for c in (1e-3, 1e3):
        checks = _summary(wavelet, c)["checks"]
        assert [x["check"] for x in checks] == [x["check"] for x in reference]
        for got, want in zip(checks, reference):
            assert got["pass"] == want["pass"], (c, got["check"])
            if got["check"] == "simulate":
                continue
            for name, value in want["statistics"].items():
                assert _close(got["statistics"][name], value), (
                    c, got["check"], name)


class _LogScaledOU(OUFilter):
    """OU stored as its values times e^{-c} with log scale c: the same
    filter, in the storage the builder gives e^{-|x|^gamma}."""

    def __init__(self, c: float):
        self.c = c

    def eval_scaled(self, x, power: int = 1):
        return self.eval(x, power=power) * math.exp(-self.c), self.c


@pytest.mark.parametrize("wavelet", WAVELETS)
def test_a_log_scale_changes_no_riesz_statistic(request, wavelet):
    wavelet = request.getfixturevalue(wavelet)
    tr, levels = Truncation(1, 2), range(1)
    reference = riesz_suite(FamilyBuilder(wavelet, FilterPair(
        OUFilter(), OUFilter())), tr, levels)
    for c in (-50.0, 50.0):
        h = _LogScaledOU(c)
        checks = riesz_suite(FamilyBuilder(wavelet, FilterPair(h, h)), tr,
                             levels)
        for got, want in zip(checks, reference):
            assert got.passed == want.passed, (c, got.name)
            for name, value in want.statistics.items():
                assert _close(got.statistics[name], value), (c, got.name,
                                                             name)


@pytest.mark.parametrize("side", ["primal", "dual"])
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_dilation_shifts_the_levels(request, wavelet, side):
    wavelet = request.getfixturevalue(wavelet)
    h = FamilyBuilder(wavelet, _rational_pair([1.0], [1.0, 0.0, 1.0]))
    h2x = FamilyBuilder(wavelet, _rational_pair([1.0], [1.0, 0.0, 4.0]))
    shifted = vaguelet_suite(h, side, VagueletParams(j_min=1, j_max=3))
    for got, want in zip(vaguelet_suite(h2x, side, VagueletParams(j_max=2)),
                         shifted):
        for name in LEVEL_STATISTICS:
            if name in want.statistics:
                assert got.statistics[name] == want.statistics[name]


@pytest.mark.parametrize("h, inverse", [
    (([1.0], [1.0, 0.0, 1.0]), ([1.0, 0.0, 1.0], [1.0])),
    (([1.0], [1.0, 1j]), ([1.0, -1j], [1.0])),
], ids=["real", "complex"])
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_side_swap_is_the_inverse_filter(request, wavelet, h, inverse):
    # the dual spectra of h are conj(1 / h) times the mothers: the primal
    # spectra of 1 / conj(h), h = 1 / (1 + x^2) and 1 / (1 + ix)
    wavelet = request.getfixturevalue(wavelet)
    h = FamilyBuilder(wavelet, _rational_pair(*h))
    inverse = FamilyBuilder(wavelet, _rational_pair(*inverse))
    params = VagueletParams(j_max=3)
    dual = (vaguelet_suite(h, "dual", params)
            + [synthesis_bound(h, "dual", J=1, K=4)])
    primal = (vaguelet_suite(inverse, "primal", params)
              + [synthesis_bound(inverse, "primal", J=1, K=4)])
    riesz_h, riesz_inverse = (riesz_suite(b, Truncation(1, 2), [])
                              for b in (h, inverse))
    dual.append(riesz_h[1])  # riesz_bounds_dual
    primal.append(riesz_inverse[0])  # riesz_bounds_primal
    for got, want in zip(dual, primal):
        assert got.passed == want.passed, got.name
        assert ({k: v for k, v in got.statistics.items() if k != "side"}
                == {k: v for k, v in want.statistics.items() if k != "side"})


@pytest.mark.filterwarnings("ignore:filter pole at x=0 absorbed")
@pytest.mark.parametrize("d", [0.3, 0.7])
@pytest.mark.parametrize("wavelet", WAVELETS)
def test_homogeneous_filter_statistics_are_level_free(request, wavelet, d):
    wavelet = request.getfixturevalue(wavelet)
    builder = FamilyBuilder(wavelet, FilterPair(UnitFilter(),
                                                FractionalFilter(d)))
    for side in ("primal", "dual"):
        for check in vaguelet_suite(builder, side, VagueletParams(j_max=3)):
            for name in LEVEL_STATISTICS:
                if name in check.statistics:
                    per_j = np.array(check.statistics[name])
                    assert np.ptp(per_j) <= 1e-14 * np.max(per_j), (
                        side, check.name, name)
