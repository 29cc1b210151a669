import math

import numpy as np
import pytest

from vaguelab.family import FamilyBuilder
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              unit_pair)
from vaguelab.grids import inverse_transform, make_grid
from vaguelab.mra import WaveletSpec
from vaguelab.report import dump_report, render_report
from vaguelab.vaguelet import (VagueletParamError, VagueletParams,
                               _band, _growth_trend, _holder_sup,
                               synthesis_bound, vaguelet_suite)

from rescaled import rescaled_member

FAST = VagueletParams(j_min=0, j_max=5)


def _check(builder, side, params, name):
    return next(r for r in vaguelet_suite(builder, side, params)
                if r.name == name)


def test_params_validation():
    VagueletParams(0.9, 0.5)
    with pytest.raises(VagueletParamError):
        VagueletParams(alpha1=0.5, alpha2=0.9)  # needs alpha2 < alpha1
    with pytest.raises(VagueletParamError):
        VagueletParams(alpha1=1.2, alpha2=0.5)
    with pytest.raises(VagueletParamError):
        VagueletParams(j_min=3, j_max=1)
    with pytest.raises(VagueletParamError):
        VagueletParams(t_window=-1.0)


def test_unit_filter_statistics_are_level_exact(unit_builder):
    # with h = 1 the rescaled statistics are identical across levels
    decay, _, holder = vaguelet_suite(unit_builder, "primal", FAST)
    assert decay.passed
    per_j = decay.statistics["per_j"]
    assert max(per_j) / min(per_j) < 1.0 + 1e-9
    assert holder.passed
    per_j = holder.statistics["per_j_refined"]
    assert max(per_j) / min(per_j) < 1.0 + 1e-9


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_ou_suite_passes(ou_builder, side):
    for result in vaguelet_suite(ou_builder, side, FAST):
        assert result.passed, (result.name, result.statistics)
        if "band_ratio" in result.statistics:
            assert result.statistics["band_ratio"] < 10.0


def test_holder_refinement_stable(ou_builder):
    result = _check(ou_builder, "primal", FAST, "holder_statistic")
    assert result.statistics["max_refinement_change"] < 0.20


def test_mean_check(ou_builder):
    result = _check(ou_builder, "primal", FAST, "mean_check")
    assert result.passed
    assert result.statistics["max_scaled_value_at_zero"] < 1e-12


def test_mean_check_daubechies_report_serializes(db4, ou_pair):
    builder = FamilyBuilder(db4, ou_pair, make_grid(16.0 * np.pi, 2**10))
    result = _check(builder, "primal", VagueletParams(j_min=0, j_max=0),
                    "mean_check")
    assert type(result.passed) is bool
    dump_report(render_report([result], {}))


def test_exp_gamma_decay_fails(meyer):
    # e^{-|x|^gamma} dampens the spectrum so unevenly across levels that
    # the normalized decay statistic blows up: not a vaguelet family
    pair = FilterPair(ExpGammaFilter(1.0), ExpGammaFilter(1.0))
    builder = FamilyBuilder(meyer, pair)
    result = _check(builder, "primal", FAST, "decay_statistic")
    assert result.passed is False


def test_synthesis_bound_unit(unit_builder):
    result = synthesis_bound(unit_builder, "primal", J=2, K=4, trials=50)
    assert result.passed
    # orthonormal system: the quotient is exactly 1
    assert abs(result.statistics["max_R"] - 1.0) < 1e-9
    assert result.statistics["lambda_max"] <= 1.0 + 1e-9


def test_synthesis_bound_ou(ou_builder):
    result = synthesis_bound(ou_builder, "primal", J=2, K=8, trials=50)
    assert result.passed
    assert result.statistics["max_R"] <= result.statistics["lambda_max"] + 1e-9


def test_fractional_suite_passes(meyer):
    pair = FilterPair(FractionalFilter(0.7), FractionalFilter(0.7))
    builder = FamilyBuilder(meyer, pair)
    for result in vaguelet_suite(builder, "dual", FAST):
        assert result.passed, (result.name, result.statistics)


def _reference_statistics(builder, side, params):
    """The per-statistic loops the one-pass suite replaced: decay and the
    coarse Hoelder statistic from the base-grid profile, the refined one
    from the profile of the level spectrum on a grid twice as wide, and
    the mean from the 2^j-rescaled members."""
    wide = make_grid(builder.grid.x_max * 2, builder.grid.n * 2)

    def profile(j, grid):
        series = inverse_transform(builder.level_spectrum(j, side, "wavelet",
                                                          grid))
        tau, vals = series.t, series.values
        norm = math.sqrt(float(np.sum(np.abs(vals) ** 2)) * series.dt)
        m = np.abs(tau) <= 2.0**j * params.t_window
        return tau, vals, norm, m

    decay, coarse, fine = [], [], []
    for j in params.j_range:
        tau, vals, norm, m = profile(j, builder.grid)
        decay.append(float(np.max(np.abs(vals[m]) * (1.0 + np.abs(tau[m]))
                                  ** (1.0 + params.alpha1))) / norm)
        for grid, out in ((builder.grid, coarse), (wide, fine)):
            tau, vals, norm, m = profile(j, grid)
            out.append(_holder_sup(vals[m], tau[1] - tau[0], params.alpha2)
                       / norm)
    worst = 0.0
    for j in params.j_range:
        member = rescaled_member(builder, j, side, "wavelet")
        vals = member.spectrum.values
        zero_idx = int(np.argmin(np.abs(member.spectrum.grid.x)))
        worst = max(worst, abs(vals[zero_idx]) / float(np.max(np.abs(vals))))
    changes = [abs(f - c) / max(c, 1e-300) for c, f in zip(coarse, fine)]
    return {"decay_per_j": decay, "decay_band": _band(decay),
            "decay_growth": _growth_trend(decay), "holder_per_j": coarse,
            "holder_refined": fine, "holder_band": _band(fine),
            "holder_growth": _growth_trend(fine),
            "max_refinement_change": max(changes), "mean": worst}


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_suite_bit_equals_per_statistic_loops(meyer, ou_pair, db4, side):
    params = VagueletParams(j_min=0, j_max=3)
    cases = [(FamilyBuilder(meyer, ou_pair), 0.0),
             (FamilyBuilder(db4, ou_pair, make_grid(16.0 * np.pi, 2**10)),
              1e-15)]
    for builder, mean_rtol in cases:
        ref = _reference_statistics(builder, side, params)
        decay, mean, holder = vaguelet_suite(builder, side, params)
        d, h = decay.statistics, holder.statistics
        assert d["per_j"] == ref["decay_per_j"]
        assert d["band_ratio"] == ref["decay_band"]
        assert d["growth_trend"] == ref["decay_growth"]
        assert h["per_j"] == ref["holder_per_j"]
        assert h["per_j_refined"] == ref["holder_refined"]
        assert h["band_ratio"] == ref["holder_band"]
        assert h["growth_trend"] == ref["holder_growth"]
        assert h["max_refinement_change"] == ref["max_refinement_change"]
        got = mean.statistics["max_scaled_value_at_zero"]
        assert abs(got - ref["mean"]) <= mean_rtol * ref["mean"]
    # the db4 mean is roundoff, not 0, so the relative bound is a real test
    assert ref["mean"] > 0.0


def test_suite_evaluates_each_level_spectrum_twice(monkeypatch, meyer,
                                                   ou_pair):
    # one base-grid and one wide-grid spectrum per level and no other
    # spectrum: the mean ratio comes from the base-grid spectrum
    calls = {"level_spectrum": 0, "_evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(FamilyBuilder, name,
                            counted(name, getattr(FamilyBuilder, name)))
    builder = FamilyBuilder(meyer, ou_pair, make_grid(16.0 * np.pi, 2**10))
    vaguelet_suite(builder, "primal", FAST)
    assert calls == {"level_spectrum": 2 * len(FAST.j_range),
                     "_evaluate": 2 * len(FAST.j_range)}
