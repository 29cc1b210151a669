import numpy as np
import pytest

from vaguelab.family import FamilyBuilder
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              unit_pair)
from vaguelab.grids import make_grid
from vaguelab.mra import WaveletSpec
from vaguelab.report import dump_report, render_report
from vaguelab.vaguelet import (VagueletParamError, VagueletParams,
                               decay_statistic, holder_statistic, mean_check,
                               synthesis_bound, vaguelet_suite)

FAST = VagueletParams(j_min=0, j_max=5)


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
    result = decay_statistic(unit_builder, "primal", FAST)
    assert result.passed
    per_j = result.statistics["per_j"]
    assert max(per_j) / min(per_j) < 1.0 + 1e-9
    result = holder_statistic(unit_builder, "primal", FAST)
    assert result.passed
    per_j = result.statistics["per_j_refined"]
    assert max(per_j) / min(per_j) < 1.0 + 1e-9


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_ou_suite_passes(ou_builder, side):
    for result in vaguelet_suite(ou_builder, side, FAST):
        assert result.passed, (result.name, result.statistics)
        if "band_ratio" in result.statistics:
            assert result.statistics["band_ratio"] < 10.0


def test_holder_refinement_stable(ou_builder):
    result = holder_statistic(ou_builder, "primal", FAST)
    assert result.statistics["max_refinement_change"] < 0.20


def test_mean_check(ou_builder):
    result = mean_check(ou_builder, "primal", j_range=range(0, 6))
    assert result.passed
    assert result.statistics["max_scaled_value_at_zero"] < 1e-12


def test_mean_check_daubechies_report_serializes(db4, ou_pair):
    builder = FamilyBuilder(db4, ou_pair, make_grid(16.0 * np.pi, 2**10))
    result = mean_check(builder, "primal", j_range=range(1))
    assert type(result.passed) is bool
    dump_report(render_report([result], {}))


def test_exp_gamma_decay_fails(meyer):
    # e^{-|x|^gamma} dampens the spectrum so unevenly across levels that
    # the normalized decay statistic blows up: not a vaguelet family
    pair = FilterPair(ExpGammaFilter(1.0), ExpGammaFilter(1.0))
    builder = FamilyBuilder(meyer, pair)
    result = decay_statistic(builder, "primal", FAST)
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
