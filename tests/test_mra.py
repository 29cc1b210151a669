import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguelab.grids import SampledSpectrum, default_grid, l2_norm, make_grid
from vaguelab.mra import (MEYER_SUPPORT_RADIUS, WaveletSpec, check_cmf,
                          check_w3, check_w4, daubechies_coefficients,
                          daubechies_phi_hat, daubechies_phi_hat_levels,
                          daubechies_u_hat, meyer_nu, meyer_phi_hat,
                          meyer_psi_abs, vanishing_moment_order)

from phi_product import direct_phi_hat_levels


@settings(max_examples=100, deadline=None)
@given(s=st.floats(0.0, 1.0))
def test_meyer_nu_symmetry(s):
    # nu(s) + nu(1 - s) = 1 is what makes the boundary evaluation stable
    assert abs(meyer_nu(s) + meyer_nu(1.0 - s) - 1.0) < 1e-12


def test_meyer_nu_endpoints():
    assert meyer_nu(0.0) == 0.0
    assert meyer_nu(1.0) == 1.0
    assert abs(meyer_nu(0.5) - 0.5) < 1e-12


def test_meyer_phi_plateau_and_support():
    x = np.linspace(0.0, 2.0 * np.pi / 3.0, 100)
    assert np.all(meyer_phi_hat(x) == 1.0)
    x = np.linspace(4.0 * np.pi / 3.0, 10.0, 100)
    assert np.all(meyer_phi_hat(x) == 0.0)
    # even function
    x = np.linspace(-5.0, 5.0, 101)
    assert np.max(np.abs(meyer_phi_hat(x) - meyer_phi_hat(-x))) == 0.0


def test_meyer_phi_shift_partition():
    # sum_k |phi^(x + 2 pi k)|^2 = 1 (orthonormal shifts)
    x = np.linspace(-np.pi, np.pi, 2001)
    total = sum(meyer_phi_hat(x + 2.0 * np.pi * k) ** 2 for k in range(-2, 3))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_meyer_psi_support_and_partition():
    x = np.linspace(0.0, 2.0 * np.pi / 3.0, 50, endpoint=False)
    assert np.all(meyer_psi_abs(x) == 0.0)
    assert meyer_psi_abs(3.0 * MEYER_SUPPORT_RADIUS) == 0.0
    # dyadic partition sum_j |psi^(2^-j x)|^2 = 1 away from 0
    x = np.linspace(1.0, 100.0, 2001)
    total = sum(meyer_psi_abs(2.0**-j * x) ** 2 for j in range(-3, 9))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_meyer_psi_hat_modulus_matches_profile(meyer):
    x = np.linspace(-9.0, 9.0, 1001)
    assert np.max(np.abs(np.abs(meyer.psi_hat(x)) - meyer_psi_abs(x))) < 1e-12


def test_meyer_psi_unit_norm(meyer):
    g = default_grid()
    spec = SampledSpectrum(g, np.asarray(meyer.psi_hat(g.x)))
    assert abs(l2_norm(spec) - 1.0) < 1e-9


def test_cmf_meyer(meyer):
    result = check_cmf(meyer)
    assert result.passed
    assert result.statistics["max_defect"] < 1e-12


def test_cmf_daubechies(db4):
    result = check_cmf(db4)
    assert result.passed
    assert result.statistics["max_defect"] < 1e-10


def test_db2_coefficients_closed_form():
    # oracle: the classical 4-tap coefficients (1 +- sqrt 3 etc.) / (4 sqrt 2)
    s3 = math.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
    assert np.max(np.abs(daubechies_coefficients(2) - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_daubechies_coefficient_identities(n):
    h = daubechies_coefficients(n)
    assert len(h) == 2 * n
    assert abs(h.sum() - math.sqrt(2.0)) < 1e-10
    assert abs(np.sum(h**2) - 1.0) < 1e-10
    # double-shift orthogonality
    for shift in range(1, n):
        assert abs(np.sum(h[2 * shift:] * h[:-2 * shift])) < 1e-10


def test_phi_hat_at_zero(meyer, db4):
    assert abs(complex(np.asarray(meyer.phi_hat(np.array([0.0])))[0]) - 1.0) < 1e-12
    assert abs(complex(db4.phi_hat(np.array([0.0]))[0]) - 1.0) < 1e-10


def test_vanishing_moment_order():
    assert vanishing_moment_order(WaveletSpec("meyer")) == math.inf
    for n in (2, 4, 6):
        w = WaveletSpec("daubechies", n_moments=n)
        assert vanishing_moment_order(w) == n


def test_check_w3(meyer, db4):
    assert check_w3(meyer).passed
    assert check_w3(db4).passed


def test_check_w4(meyer, db4):
    # compact Fourier support passes any exponent
    assert check_w4(meyer, d=1.0).passed
    # the 4-moment filter lacks the derivative-decay margin for d = 1
    assert check_w4(db4, d=1.0).passed is False


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveletSpec("haar")
    with pytest.raises(ValueError):
        WaveletSpec("daubechies", n_moments=1)
    with pytest.raises(ValueError):
        WaveletSpec("daubechies", n_moments=2.5)
    for depth in (1.5, 19, 40.0, True):
        with pytest.raises(ValueError, match="depth"):
            WaveletSpec("daubechies", n_moments=4, depth=depth)
    for cfg in ({"n": 4.0}, {"n": 4, "depth": 1.5}, {"n": 4, "depth": False}):
        with pytest.raises(ValueError):
            WaveletSpec.from_config({"kind": "daubechies", **cfg})


def test_config_round_trip(meyer, db4):
    for w in (meyer, db4):
        clone = WaveletSpec.from_config(w.config())
        assert clone.kind == w.kind and clone.n_moments == w.n_moments
    with pytest.raises(ValueError):
        WaveletSpec.from_config({"kind": "meyer", "bogus": 1})
    with pytest.raises(ValueError):
        WaveletSpec.from_config({"kind": "unknown"})


def test_moment_condition_guard(meyer, db4):
    meyer.check_moment_condition(5.0)  # inf moments: fine
    db4.check_moment_condition(1.0)
    with pytest.raises(ValueError):
        db4.check_moment_condition(5.0)


def test_two_scale_relation(meyer, db4):
    # phi^(x) = u^(x/2) phi^(x/2) / sqrt 2 on a generic grid
    x = np.linspace(-6.0, 6.0, 257)
    for w in (meyer, db4):
        lhs = np.asarray(w.phi_hat(x), dtype=complex)
        rhs = np.asarray(w.u_hat(x / 2)) * np.asarray(w.phi_hat(x / 2)) \
            / math.sqrt(2.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_daubechies_u_hat_matches_direct_sum(n):
    # oracle: sum_n h_n e^{-i n xi}, one exponential per term; on a grid of
    # multiples of 1/64 every phase n xi is exact, so the oracle's own
    # error stays at roundoff
    h = daubechies_coefficients(n)
    xi = np.arange(-400 * 64, 400 * 64 + 1) / 64.0
    direct = sum(c * np.exp(-1j * k * xi) for k, c in enumerate(h))
    assert np.max(np.abs(daubechies_u_hat(n, xi) - direct)) < 1e-13


@pytest.mark.parametrize("n", range(2, 11))
def test_daubechies_v_hat_is_conjugate_symmetric_bit_for_bit(n):
    # v^(-x) == conj(v^(x)) bit for bit, so psi^ is hermitian, as the half
    # spectra take it to be, on the default grid, the (2 x_max, 2n) grid
    # and the level y-grids whose points psi^ halves
    base = default_grid()
    grids = [make_grid(2.0 * base.x_max, 2 * base.n)] + [
        make_grid(base.x_max / 2.0**j, base.n) for j in range(7)]
    v_hat = WaveletSpec("daubechies", n_moments=n).v_hat
    for grid in grids:
        x = grid.x[1:]  # at x = 0 the imaginary part is a signed zero
        assert np.conj(v_hat(x)).tobytes() == v_hat(-x).tobytes(), grid


@pytest.mark.parametrize("n", range(2, 11))
def test_daubechies_v_hat_matches_shifted_u_hat_and_direct_sum(n):
    # v^(x) = e^{-ix} conj(u^(x + pi)) = sum_k (-1)^k h_k e^{i(k-1)x}: the
    # polynomial form stays within 2.5e-14 of the shifted form on |x| <= 100
    # (9.7e-15 for db4; most of it is the rounding of x + pi, which grows
    # with |x|), and within 2e-15 of the direct sum with exact phases on
    # multiples of 1/64
    spec = WaveletSpec("daubechies", n_moments=n)
    x = np.linspace(-100.0, 100.0, 20001)
    shifted = np.exp(-1j * x) * np.conj(daubechies_u_hat(n, x + np.pi))
    assert np.max(np.abs(spec.v_hat(x) - shifted)) < 2.5e-14
    h = daubechies_coefficients(n)
    xi = np.arange(-100 * 64, 100 * 64 + 1) / 64.0
    direct = sum((-1)**k * c * np.exp(1j * (k - 1) * xi)
                 for k, c in enumerate(h))
    assert np.max(np.abs(spec.v_hat(xi) - direct)) < 2e-15


@pytest.mark.parametrize("n", [2, 4, 10])
def test_daubechies_phi_hat_matches_outer_product_form(n):
    # oracle: each factor from the (points x 2N) exponential table
    x = default_grid().x
    h = daubechies_coefficients(n).astype(complex)
    taps = np.arange(len(h))
    expected = np.ones(x.shape, dtype=complex)
    for j in range(1, 41):
        expected *= np.exp(-1j * np.multiply.outer(x / 2.0**j, taps)) @ h \
            / math.sqrt(2.0)
    assert np.max(np.abs(daubechies_phi_hat(n, x) - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 10])
def test_daubechies_phi_hat_levels_match_one_level_products(n):
    # oracle: each level's product evaluated on its own, and the level-0
    # product of x / 2^l, bit for bit; the levels need not be contiguous
    x = default_grid().x
    levels = (0, 1, 2, 5)
    for level, got in zip(levels, daubechies_phi_hat_levels(n, x, levels)):
        expected = daubechies_phi_hat_levels(n, x, (level,))[0]
        assert np.array_equal(got, expected)
        assert np.array_equal(daubechies_phi_hat(n, x / 2**level), expected)


def test_daubechies_phi_hat_levels_do_not_depend_on_point_order():
    # every value depends on its point alone: 4096 random points in random
    # order, and each point on its own, give the ordered grid's values bit
    # for bit
    x = default_grid().x
    rng = np.random.default_rng(0)
    order = rng.choice(x.size, 4096, replace=False)
    levels = (0, 3)
    ordered = daubechies_phi_hat_levels(4, x, levels)
    for got, expected in zip(daubechies_phi_hat_levels(4, x[order], levels),
                             ordered):
        assert np.array_equal(got, expected[order])
    for i in rng.choice(x.size, 32, replace=False):
        for got, expected in zip(daubechies_phi_hat_levels(4, x[i], levels),
                                 ordered):
            assert got.shape == () and got == expected[i]


@pytest.mark.parametrize("depth", [20, 40])
@pytest.mark.parametrize("n", range(2, 11))
def test_daubechies_phi_hat_levels_match_direct_product(n, depth):
    # oracle: every factor evaluated directly at every point; the closed-form
    # tail of the deep factors stays at roundoff for |x| <= 1024 pi, near 0
    # included
    far = np.linspace(-1024.0 * np.pi, 1024.0 * np.pi, 2**14 + 1)
    near = np.geomspace(1e-6, 1024.0 * np.pi, 2001)
    x = np.concatenate((far, near, -near))
    levels = (0, 1, 2, 5, 8)
    got = daubechies_phi_hat_levels(n, x, levels, depth)
    expected = direct_phi_hat_levels(n, x, levels, depth)
    for level, g, e in zip(levels, got, expected):
        assert np.max(np.abs(g - e)) <= 1e-14, level


def test_daubechies_phi_hat_keeps_every_factor():
    # at the grid edge the 40th factor still differs from 1 by ~1.8e-10,
    # so stopping the product early would change results
    x = np.array([64.0 * np.pi])
    ratio = (daubechies_phi_hat(4, x, depth=40)
             / daubechies_phi_hat(4, x, depth=39))
    assert abs(ratio[0] - 1.0) > 1e-10
    with pytest.raises(ValueError):
        daubechies_phi_hat(4, x, depth=19)


def test_daubechies_phi_hat_memory_is_a_few_arrays():
    # no (points x 2N) table: the peak stays a few complex arrays of length n
    x = default_grid().x
    tracemalloc.start()
    try:
        daubechies_phi_hat(4, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * len(x)
