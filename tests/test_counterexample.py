import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vaguelab.counterexample import (CounterexampleConfig,
                                     CounterexampleError, _integrate,
                                     default_window, ratio_exponent,
                                     run_counterexample, scaled_norm,
                                     scaled_peak, special_frequency,
                                     vaguelet_violation)
from vaguelab.mra import MEYER_SUPPORT_RADIUS, meyer_psi_abs


def direct_scaled_norm(j: int, cfg: CounterexampleConfig,
                       n: int = 400001) -> float:
    """x-domain oracle without substitution; safe only for small j."""
    g, a = cfg.gamma, cfg.a
    expo = 2.0 * 2.0 ** (j * g) * (a**g - np.linspace(0.0, a, n) ** g)
    if float(np.max(expo)) > 700.0:
        raise CounterexampleError("direct quadrature would underflow; use j <= 2")
    x = np.linspace(0.0, a, n)
    integrand = np.exp(-expo) * meyer_psi_abs(x) ** 2
    return math.sqrt(float(np.trapezoid(integrand, x)) / np.pi)


def direct_scaled_peak(j: int, cfg: CounterexampleConfig,
                       u: float | None = None, n: int = 400001) -> float:
    if u is None:
        u = special_frequency(j, cfg)
    g, a = cfg.gamma, cfg.a
    x = np.linspace(0.0, a, n)
    expo = 2.0 ** (j * g) * (a**g - x**g)
    integrand = np.exp(1j * u * x) * np.exp(-expo) * meyer_psi_abs(x)
    return float(np.trapezoid(integrand, x).real) / np.pi


def ou_sanity(j_min: int = 6, j_max: int = 12, alpha1: float = 0.5,
              n: int = 2**17) -> dict:
    """The same peak/norm pipeline for the OU inverse filter.

    f_j^(x) = (1 + (2^j x)^2)^{1/2} psi^(x) grows only polynomially; its
    normalized values along u_j = floor(2^j) 2 pi / a decay fast, so no
    violation is flagged. Run by direct x-domain quadrature.
    """
    a = MEYER_SUPPORT_RADIUS
    x = np.linspace(0.0, a, n + 1)
    psi = meyer_psi_abs(x)
    js = list(range(j_min, j_max + 1))
    ratios = []
    for j in js:
        w = np.sqrt(1.0 + (2.0**j * x) ** 2)
        norm = math.sqrt(float(np.trapezoid(w**2 * psi**2, x)) / np.pi)
        u = math.floor(2.0**j) * 2.0 * np.pi / a
        peak = float(np.trapezoid(np.exp(1j * u * x) * w * psi, x).real) / np.pi
        ratios.append(abs(peak) / norm)
    slope = float(np.polyfit(js, np.log2(ratios), 1)[0])
    forced = -1.0 * (1.0 + alpha1)  # OU has d = 1; u_j ~ 2^j
    return {"passed": not slope > forced + 0.2, "measured_slope": slope,
            "forced_slope": forced}


def test_config_validation():
    CounterexampleConfig(1.0, 6, 12)
    with pytest.raises(CounterexampleError):
        CounterexampleConfig(-1.0, 6, 12)
    with pytest.raises(CounterexampleError):
        CounterexampleConfig(1.0, 12, 6)
    # a window is never cast: 2.7..9.9 used to run as 2..9
    for window in ((2.7, 9.9), (6, 12.0), (True, 12)):
        with pytest.raises(CounterexampleError):
            CounterexampleConfig(1.0, *window)


def test_default_windows():
    assert default_window(0.5) == (16, 24)
    assert default_window(1.0) == (6, 12)
    assert default_window(2.0) == (4, 9)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_substituted_quadrature_matches_direct(j):
    # oracle: plain x-domain quadrature without the boundary-layer
    # substitution, feasible only at low levels
    cfg = CounterexampleConfig(1.0, 6, 12)
    assert math.isclose(scaled_norm(j, cfg), direct_scaled_norm(j, cfg),
                        rel_tol=1e-8)
    assert math.isclose(scaled_peak(j, cfg), direct_scaled_peak(j, cfg),
                        rel_tol=1e-8, abs_tol=1e-12)


def test_direct_norm_overflow_guard():
    cfg = CounterexampleConfig(2.0, 4, 9)
    with pytest.raises(CounterexampleError):
        direct_scaled_norm(12, cfg)  # e^{2 (2^12 x)^2} overflows: refuse


def test_ratio_slope_gamma_one():
    cfg = CounterexampleConfig(1.0, 6, 12)
    result = ratio_exponent(run_counterexample(cfg))
    assert result.passed
    assert abs(result.statistics["slope"] + 0.5) < 0.05
    assert result.statistics["fit_residual"] < 0.1


def test_peak_is_largest_on_special_sequence():
    # off the sequence u_j = floor(2^{j gamma}) 2 pi / a the peak is smaller
    # a generic O(1) shift off the arithmetic sequence u_j de-phases the
    # boundary layer at x = a and shrinks the value
    cfg = CounterexampleConfig(1.0, 6, 12)
    for j in (8, 10):
        u = special_frequency(j, cfg)
        on = abs(scaled_peak(j, cfg))
        for offset in (0.5, -0.5):
            assert abs(scaled_peak(j, cfg, u=u + offset)) < 0.9 * on


def test_violation_flagged():
    run = run_counterexample(CounterexampleConfig(1.0, 6, 12))
    for alpha1 in (0.1, 0.5):
        result = vaguelet_violation(run, alpha1)
        assert result.passed
        assert result.statistics["violation"] is True
    with pytest.raises(CounterexampleError):
        vaguelet_violation(run, 1.5)


def test_no_overflow_at_high_levels():
    # gamma = 2 at j = 9 means e^{2 (512 x)^2} ~ e^{10^7} in the naive form;
    # the substituted quadrature must stay finite
    cfg = CounterexampleConfig(2.0, 4, 9)
    run = run_counterexample(cfg)
    assert all(np.isfinite(run.scaled_norms))
    assert all(np.isfinite(run.scaled_peaks))
    assert all(n > 0 for n in run.scaled_norms)


def test_needs_five_levels():
    with pytest.raises(CounterexampleError):
        CounterexampleConfig(1.0, 6, 9)


def test_ou_sanity_no_violation():
    result = ou_sanity()
    assert result["passed"]
    # polynomially bounded weight: decay much steeper than the forced slope
    assert result["measured_slope"] < result["forced_slope"]


def test_records_schema():
    cfg = CounterexampleConfig(1.0, 6, 11)
    run = run_counterexample(cfg)
    records = list(run.records())
    assert [r["j"] for r in records] == list(range(6, 12))
    assert set(records[0]) == {"j", "scaled_norm", "scaled_peak", "ratio"}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), half=st.integers(1, 2000),
       y_cut=st.floats(1e-3, 40.0), complex_values=st.booleans())
def test_simpson_sum_bit_equals_scipy(data, half, y_cut, complex_values):
    # SciPy is only the oracle: the package sums Simpson itself
    import scipy.integrate

    n = 2 * half + 1  # _y_grid always returns an odd node count
    elements = st.floats(-1e150, 1e150, allow_nan=False)
    values = data.draw(hnp.arrays(np.float64, n, elements=elements))
    if complex_values:
        values = values + 1j * data.draw(hnp.arrays(np.float64, n,
                                                    elements=elements))
    y = np.geomspace(1e-8 * y_cut, y_cut, n)
    s = np.log(y)
    want = scipy.integrate.simpson(values * y, dx=float(s[1] - s[0]))
    got = _integrate(values, y)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
