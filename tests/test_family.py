import math
import tracemalloc

import numpy as np
import pytest

from vaguelab import mra
from vaguelab.cli import main
from vaguelab.family import (MIRROR_EDGE, ROLES, SIDES, FamilyBuilder,
                             FamilyError, FamilyIndex, _spectrum)
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              OUFilter, UnitFilter, unit_pair)
from vaguelab.grids import inner_product, l2_norm, make_grid
from vaguelab.mra import WaveletSpec
from vaguelab.riesz import Truncation, gram
from vaguelab.vaguelet import VagueletParams, synthesis_bound, vaguelet_suite

from phi_product import direct_factor_count
from rescaled import norm_band, rescaled_member
from transforms import inverse_transform, time_samples


def test_index_validation():
    FamilyIndex(0, 0, "primal", "wavelet")
    with pytest.raises(FamilyError):
        FamilyIndex(-1, 0, "primal", "wavelet")
    with pytest.raises(FamilyError):
        FamilyIndex(0, 0, "left", "wavelet")
    with pytest.raises(FamilyError):
        FamilyIndex(0, 0, "primal", "scaling")


def test_unit_filter_members_are_orthonormal(unit_builder):
    # with h = 1 the family is the orthonormal wavelet system itself
    for j in range(0, 4):
        m = unit_builder.build_member(FamilyIndex(j, 0, "primal", "wavelet"))
        assert abs(m.norm - 1.0) < 1e-9
    a = unit_builder.build_member(FamilyIndex(0, 0, "primal", "wavelet"))
    b = unit_builder.build_member(FamilyIndex(0, 1, "primal", "wavelet"))
    c = unit_builder.build_member(FamilyIndex(1, 0, "primal", "wavelet"))
    assert abs(inner_product(a.spectrum, b.spectrum)) < 1e-9
    assert abs(inner_product(a.spectrum, c.spectrum)) < 1e-9


def test_shift_is_pure_phase(ou_builder):
    base = ou_builder.build_member(FamilyIndex(1, 0, "primal", "wavelet"))
    shifted = ou_builder.build_member(FamilyIndex(1, 3, "primal", "wavelet"))
    x = ou_builder.grid.x
    phase = np.exp(-1j * 2.0**-1 * 3 * x)
    assert np.max(np.abs(shifted.spectrum.values
                         - base.spectrum.values * phase)) < 1e-12
    assert abs(shifted.norm - base.norm) < 1e-12


def test_norm_closed_form_ou(ou_builder, meyer):
    # oracle: ||h2 psi_j0||^2 = (2 pi)^{-1} int |psi^(y)|^2 / (1 + (2^j y)^2) dy
    from vaguelab.mra import meyer_psi_abs
    for j in (0, 2):
        member = ou_builder.build_member(FamilyIndex(j, 0, "primal", "wavelet"))
        y = np.linspace(2.0 * np.pi / 3.0, 8.0 * np.pi / 3.0, 20001)
        dens = meyer_psi_abs(y) ** 2 / (1.0 + (2.0**j * y) ** 2)
        oracle = math.sqrt(2.0 * np.trapezoid(dens, y) / (2.0 * np.pi))
        assert abs(member.norm - oracle) < 1e-6


def test_dual_primal_product_cancels_filter(ou_builder, unit_builder):
    # conj(dual) * primal = |psi_jk|^2 pointwise: filters cancel exactly
    idx_p = FamilyIndex(2, 0, "primal", "wavelet")
    idx_d = FamilyIndex(2, 0, "dual", "wavelet")
    p = ou_builder.build_member(idx_p).spectrum.values
    d = ou_builder.build_member(idx_d).spectrum.values
    u = unit_builder.build_member(idx_p).spectrum.values
    assert np.max(np.abs(np.conj(d) * p - np.abs(u) ** 2)) < 1e-12


def test_fractional_dual_approximation_rejected(meyer):
    pair = FilterPair(FractionalFilter(0.7), FractionalFilter(0.7))
    builder = FamilyBuilder(meyer, pair)
    with pytest.raises(FamilyError):
        builder.build_member(FamilyIndex(0, 0, "dual", "approximation"))
    # the wavelet role is fine: Meyer support excludes the pole at 0
    member = builder.build_member(FamilyIndex(0, 0, "dual", "wavelet"))
    assert member.norm > 0


def test_level_profile_matches_member(ou_builder):
    # member_{j,0}(t) = 2^{j/2} g_j(2^j t) on the matching tau samples
    j = 1
    member = ou_builder.build_member(FamilyIndex(j, 0, "primal", "wavelet"))
    series = time_samples(member)
    profile = inverse_transform(ou_builder.level_spectrum(j, "primal",
                                                          "wavelet")[0])
    # compare at t=0 and a few grid-aligned offsets
    n_half = len(series.values) // 2
    p_half = len(profile.values) // 2
    for step in (0, 16, 64, -32):
        t = step * series.dt
        tau = 2.0**j * t
        k = int(round((tau - profile.t0) / profile.dt))
        assert abs(profile.t0 + k * profile.dt - tau) < 1e-12
        lhs = series.values[n_half + step]
        rhs = 2.0 ** (j / 2.0) * profile.values[k]
        assert abs(lhs - rhs) < 1e-9


def test_level_profile_pad_refines(ou_builder):
    # the level spectrum on a grid twice as wide at the same dy samples
    # the profile twice as finely
    grid = ou_builder.grid
    wide = make_grid(2.0 * grid.x_max, 2 * grid.n)
    coarse = inverse_transform(ou_builder.level_spectrum(0, "primal",
                                                         "wavelet")[0])
    fine = inverse_transform(ou_builder.level_spectrum(0, "primal", "wavelet",
                                                       wide)[0])
    assert fine.dt == pytest.approx(coarse.dt / 2.0)
    # coarse samples appear among the fine ones
    assert np.max(np.abs(fine.values[::2][:len(coarse.values)]
                         - coarse.values)) < 1e-9


def test_member_at_scale_rescaled_matches_base_grid(ou_builder):
    for j in (0, 3):
        direct = ou_builder.build_member(FamilyIndex(j, 0, "primal", "wavelet"))
        rescaled = rescaled_member(ou_builder, j, "primal", "wavelet")
        assert abs(direct.norm - rescaled.norm) / direct.norm < 1e-9


def test_member_at_scale_negative_j(ou_builder):
    with pytest.raises(FamilyError):
        rescaled_member(ou_builder, -2, "primal", "wavelet")


def test_norm_band_ou(ou_builder):
    result = norm_band(ou_builder)
    assert result.passed
    assert result.statistics["band_primal"] < 3.0
    assert result.statistics["band_dual"] < 3.0


def test_norm_band_exp_gamma_fails(meyer):
    pair = FilterPair(ExpGammaFilter(1.0), ExpGammaFilter(1.0))
    result = norm_band(FamilyBuilder(meyer, pair), j_range=range(0, 7))
    assert result.passed is False


def test_norm_scaling_fractional_high_level(meyer):
    # extrapolation: log-norm grows linearly with slope d log 2 in j
    pair = FilterPair(FractionalFilter(0.7), FractionalFilter(0.7))
    builder = FamilyBuilder(meyer, pair)
    lo = rescaled_member(builder, 8, "primal", "wavelet").log_norm
    hi = rescaled_member(builder, 20, "primal", "wavelet").log_norm
    slope = (hi - lo) / (12.0 * math.log(2.0))
    assert abs(slope - 0.7) < 1e-3


def test_time_samples_unit_norm(unit_builder):
    member = unit_builder.build_member(FamilyIndex(0, 0, "primal", "wavelet"))
    series = time_samples(member)
    time_norm = math.sqrt(float(np.sum(np.abs(series.values) ** 2)) * series.dt)
    assert abs(time_norm - 1.0) < 1e-9
    # real-valued generator in time: psi^ here is hermitian
    assert np.max(np.abs(series.values.imag)) < 1e-9


def test_mother_cache_returns_fresh_bit_equal_arrays(meyer, ou_pair):
    # results are the cached mother times a fresh filter evaluation: equal
    # to a fresh builder's bit for bit, and never aliased to the cache
    grid = make_grid(16.0 * np.pi, 2**10)
    used = FamilyBuilder(meyer, ou_pair, grid)
    for j in (0, 2, -1):
        for side in SIDES:
            used.level_spectrum(j, side, "wavelet")[0].values[:] = 7.0
            used.generator(max(j, 0), side, "approximation")[0][:] = 7.0
    for j in (0, 1, 2):
        for side in SIDES:
            for role in ROLES:
                got, log_scale = used.generator(j, side, role)
                want, want_scale = FamilyBuilder(meyer, ou_pair,
                                                 grid).generator(j, side, role)
                assert got.tobytes() == want.tobytes()
                assert log_scale == want_scale
                got[:] = 7.0
                fresh = FamilyBuilder(meyer, ou_pair, grid)
                assert (used.level_spectrum(j - 1, side, role)[0]
                        .values.tobytes()
                        == fresh.level_spectrum(j - 1, side, role)[0]
                        .values.tobytes())


@pytest.mark.parametrize("wavelet", [
    WaveletSpec("meyer"), WaveletSpec("daubechies", n_moments=2),
    WaveletSpec("daubechies", n_moments=4),
    WaveletSpec("daubechies", n_moments=10),
    WaveletSpec("daubechies", n_moments=7)], ids=["meyer", "db2", "db4",
                                                  "db10", "db7"])
def test_batch_mothers_match_direct_evaluation(wavelet, ou_pair):
    # oracle: phi_hat / psi_hat of each grid's own points, bit for bit
    # (signed zeros included) on the chain levels 0..5 of one batch and on
    # the 2n wide grid, and 0 outside the band; a Daubechies phi^ or psi^
    # is formed on x >= 0 and conjugated onto x < 0
    builder = FamilyBuilder(wavelet, ou_pair)
    builder.generators((j, "primal", role) for j in range(6) for role in ROLES)
    wide = make_grid(2.0 * builder.grid.x_max, 2 * builder.grid.n)
    builder.level_spectrum(0, "primal", "wavelet", wide)
    assert len(builder._mothers) == 13
    for (role, grid), mother in builder._mothers.items():
        direct = (wavelet.psi_hat(grid.x) if role == "wavelet"
                  else wavelet.phi_hat(grid.x))
        band = builder._bands[role, grid]
        assert mother.tobytes() == direct[band].tobytes(), (role, grid)
        assert not np.any(direct[:band.start])
        assert not np.any(direct[band.stop:])


@pytest.mark.parametrize("wavelet", [
    WaveletSpec("meyer"), WaveletSpec("daubechies", n_moments=4),
    WaveletSpec("daubechies", n_moments=10)], ids=["meyer", "db4", "db10"])
def test_level_spectra_do_not_depend_on_the_grid_layout(wavelet, ou_pair):
    # the (2 x_max, 2n) grid holds the base grid's points bit for bit at
    # indices n/2..3n/2 - 1, and its level spectra hold the base grid's
    # there too: every value depends on its point alone, not on the blocks
    # or the chain it was filled in
    builder = FamilyBuilder(wavelet, ou_pair)
    n = builder.grid.n
    wide = make_grid(2.0 * builder.grid.x_max, 2 * n)
    for j in (-1, 0, 3):
        for side in SIDES:
            for role in ROLES:
                base, log_scale = builder.level_spectrum(j, side, role)
                held, wide_log_scale = builder.level_spectrum(j, side, role,
                                                              wide)
                assert wide_log_scale == log_scale
                assert (held.values[n // 2:3 * n // 2].tobytes()
                        == base.values.tobytes()), (j, side, role)


def _holed_spectra(builder, j, side, role):
    """_spectrum of the (role, y-grid) mother of (j, side, role) as filled,
    and of a copy with one entry set to 0, and that entry's grid index."""
    grid = builder._y_grid(j)
    builder.fill([(j, side, role)])
    mother, band = builder._mothers[role, grid], builder._bands[role, grid]
    hole = len(mother) // 3
    holed = mother.copy()
    holed[hole] = 0.0
    assert mother.all() and not holed.all()
    args = (builder.wavelet, builder.pair)
    rest = (band, j, side, role, grid, 2.0 ** (-j / 2.0))
    return (_spectrum(*args, mother, *rest), _spectrum(*args, holed, *rest),
            band.start + hole)


def _bits_except(a, b, index):
    keep = np.arange(a.size) != index
    return a[keep].tobytes() == b[keep].tobytes()


@pytest.mark.parametrize("j", [0, 1])
def test_slice_path_bit_equals_masked_path(db4, ou_pair, j):
    # a Daubechies mother is nonzero on its whole band and is read on
    # slices; with one entry set to 0 it takes the masked path, which must
    # give the same bits on every other entry
    builder = FamilyBuilder(db4, ou_pair, make_grid(16.0 * np.pi, 2**10))
    for side in SIDES:
        for role in ROLES:
            (whole, scale), (holed, holed_scale), hole = _holed_spectra(
                builder, j, side, role)
            assert scale == holed_scale == 0.0
            assert _bits_except(whole, holed, hole), (side, role)
            assert holed[hole] == 0.0 and whole[hole] != 0.0


def test_slice_path_absorbs_and_refuses_the_pole_at_zero(db4):
    # the fractional dual (ix)^-0.7 has a pole at x = 0: db4's four
    # vanishing moments absorb it for psi^ (value 0 there, on both paths),
    # while phi^ does not vanish at 0 and is refused
    pair = FilterPair(FractionalFilter(0.7), FractionalFilter(0.7))
    builder = FamilyBuilder(db4, pair, make_grid(16.0 * np.pi, 2**10))
    with pytest.warns(RuntimeWarning, match="pole at x=0 absorbed"):
        (whole, _), (holed, _), hole = _holed_spectra(builder, 0, "dual",
                                                      "wavelet")
    zero = builder.grid.n // 2
    assert whole[zero] == 0.0 and holed[zero] == 0.0
    assert whole[zero - 1] != 0.0 and whole[zero + 1] != 0.0
    assert _bits_except(whole, holed, hole)
    with pytest.raises(FamilyError, match="does not vanish fast enough"):
        builder.generator(0, "dual", "approximation")


@pytest.mark.parametrize("wavelet", [
    WaveletSpec("meyer"), WaveletSpec("daubechies", n_moments=4)],
    ids=["meyer", "db4"])
def test_mothers_are_read_from_a_wider_grid_of_the_same_dx(wavelet,
                                                           ou_pair):
    # the (2 x_max, 2n) grid holds G_0's points bit for bit: once its
    # mothers are cached, G_0's are views of them, equal to a fresh
    # builder's fill; G_1 has another dx and is filled, not sliced
    builder = FamilyBuilder(wavelet, ou_pair)
    grid = builder.grid
    wide = make_grid(2.0 * grid.x_max, 2 * grid.n)
    half = make_grid(grid.x_max / 2.0, grid.n)
    for role in ROLES:
        builder.level_spectrum(0, "primal", role, wide)
        builder.fill([(0, "primal", role), (1, "primal", role)])
        fresh = FamilyBuilder(wavelet, ou_pair)
        fresh.fill([(0, "primal", role)])
        held = builder._mothers[role, grid]
        assert np.shares_memory(held, builder._mothers[role, wide])
        assert held.tobytes() == fresh._mothers[role, grid].tobytes()
        assert builder._bands[role, grid] == fresh._bands[role, grid]
        assert not np.shares_memory(builder._mothers[role, half],
                                    builder._mothers[role, wide])
        for side in SIDES:
            got, want = builder.generator(0, side, role), \
                fresh.generator(0, side, role)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]


def test_synthesis_bound_after_the_suite_takes_no_product_pass(monkeypatch,
                                                               db4, ou_pair):
    # the suite fills psi^ on the (2 x_max, 2n) grid; synthesis_bound at
    # J = 0 reads psi^ on G_0, which that grid holds: no phi^ product runs
    want = synthesis_bound(FamilyBuilder(db4, ou_pair), "primal", J=0, K=1)
    builder = FamilyBuilder(db4, ou_pair)
    vaguelet_suite(builder, "primal", VagueletParams(j_min=0, j_max=0))
    passes = []
    levels = mra.daubechies_phi_hat_levels

    def counted(*args, **kwargs):
        passes.append(args)
        return levels(*args, **kwargs)

    monkeypatch.setattr(mra, "daubechies_phi_hat_levels", counted)
    got = synthesis_bound(builder, "primal", J=0, K=1)
    assert passes == []
    assert got.statistics == want.statistics


def test_meyer_mothers_of_all_live_on_their_bands(tmp_path, monkeypatch):
    # every mother a default `vaguelab all` fills, on every chain grid and
    # for both roles, bit-equals phi_hat / psi_hat of the whole grid inside
    # its band and is zero outside it: the band is |y| < 4 pi / 3 for phi^
    # and |y| < 8 pi / 3 for psi^
    builders = []
    init = FamilyBuilder.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builders.append(self)

    monkeypatch.setattr(FamilyBuilder, "__init__", recorded)
    assert main(["all", "--out", str(tmp_path / "out")]) == 0
    meyer = WaveletSpec("meyer")
    seen = set()
    for builder in builders:
        for (role, grid), mother in builder._mothers.items():
            wavelet_role = role == "wavelet"
            direct = meyer.psi_hat(grid.x) if wavelet_role else \
                meyer.phi_hat(grid.x)
            band = builder._bands[role, grid]
            radius = (2.0 if wavelet_role else 1.0) * mra.MEYER_PHI_RADIUS
            inside = np.flatnonzero(np.abs(grid.x) < radius)
            assert (band.start, band.stop) == (inside[0], inside[-1] + 1)
            assert mother.tobytes() == direct[band].tobytes(), (role, grid)
            assert not np.any(direct[:band.start])
            assert not np.any(direct[band.stop:])
            seen.add((role, grid))
    default = builders[0].grid
    chain = {make_grid(default.x_max / 2.0**j, default.n) for j in range(5)}
    wide = make_grid(2.0 * default.x_max, 2 * default.n)
    assert seen == ({("approximation", g) for g in chain}
                    | {("wavelet", g) for g in chain} | {("wavelet", wide)})


def _psi_points(monkeypatch):
    """The points of every WaveletSpec.psi_hat call, in call order."""
    points = []
    psi_hat = WaveletSpec.psi_hat

    def recorded(self, x, phi_half=None):
        points.append(np.array(x))
        return psi_hat(self, x, phi_half)

    monkeypatch.setattr(WaveletSpec, "psi_hat", recorded)
    return points


def _psi_band(grid):
    """The points of grid where the Meyer psi^ is evaluated: |y| < 8 pi / 3."""
    x = grid.x
    return x[np.abs(x) < 2.0 * mra.MEYER_PHI_RADIUS]


def test_suite_fills_each_mother_once(monkeypatch, meyer, ou_pair):
    # every level spectrum of both sides reads the wide-grid mother, filled
    # once: the psi^ evaluations cover that grid's band exactly once
    points = _psi_points(monkeypatch)
    builder = FamilyBuilder(meyer, ou_pair)
    for side in SIDES:
        vaguelet_suite(builder, side, VagueletParams(j_min=0, j_max=5))
    wide = make_grid(2.0 * builder.grid.x_max, 2 * builder.grid.n)
    assert np.array_equal(np.concatenate(points), _psi_band(wide))


def test_norm_band_fills_psi_hat_once(monkeypatch, meyer, ou_pair):
    # every rescaled member, both sides and all levels, reads the cached
    # base-grid mother
    points = _psi_points(monkeypatch)
    builder = FamilyBuilder(meyer, ou_pair)
    norm_band(builder, range(9))
    assert np.array_equal(np.concatenate(points), _psi_band(builder.grid))


def test_gram_shares_product_factors_across_levels(monkeypatch, db4,
                                                   ou_pair):
    # both sides read phi^ on the level-0 y-grid G_0 and psi^ on G_0 and
    # G_1. psi^ on G_l is formed from phi^ on G_{l+1}, and the products of
    # phi^ on G_0, G_1, G_2 share their factors u^(x / 2^m) / sqrt 2 with
    # m = 1..42: each factor a point takes directly is evaluated once for
    # all three levels; the points are those of x >= 0 and the MIRROR_EDGE
    # points from -x_max, the rest of x < 0 is mirrored, and v^ of each
    # psi^ is evaluated at those points only
    evaluated = {"factor": 0, "v_hat": 0}
    trig_poly = mra._trig_poly

    def counted(coeffs, x, *first):
        # product factors carry the filter divided by sqrt 2 (sum 1)
        kind = "factor" if math.isclose(sum(coeffs), 1.0) else "v_hat"
        evaluated[kind] += np.size(x)
        return trig_poly(coeffs, x, *first)

    monkeypatch.setattr(mra, "_trig_poly", counted)
    builder = FamilyBuilder(db4, ou_pair)
    for side in SIDES:
        gram(builder, side, Truncation(1, 8))
    grid = builder.grid
    points = np.concatenate((grid.x[:MIRROR_EDGE], grid.x[grid.n // 2:]))
    assert evaluated == {"factor": direct_factor_count(points, 42),
                         "v_hat": 2 * len(points)}
    # the phi^ on G_1 and G_2 that only built a psi^ are not kept
    half = make_grid(grid.x_max / 2.0, grid.n)
    assert set(builder._mothers) == {("approximation", grid),
                                     ("wavelet", grid), ("wavelet", half)}


def test_mother_fill_peak_is_retained_mothers_plus_a_few_arrays(db4,
                                                                ou_pair):
    # block-wise evaluation: no full-length temporaries beyond the grid
    # points and a few blocks
    builder = FamilyBuilder(db4, ou_pair)
    grid = builder.grid
    requests = [("approximation", grid), ("wavelet", grid),
                ("wavelet", make_grid(grid.x_max / 2.0, grid.n))]
    tracemalloc.start()
    try:
        builder._fill(requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    retained = sum(mother.nbytes for mother in builder._mothers.values())
    assert retained == 3 * 16 * grid.n
    assert peak < retained + 2 * 16 * grid.n
