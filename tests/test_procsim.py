import concurrent.futures
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vaguelab.family import FamilyBuilder, FamilyIndex
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              OUFilter, unit_pair)
from vaguelab.mra import WaveletSpec
from vaguelab import procsim
from vaguelab.procsim import (PathEnsemble, ProcsimError, SynthesisPlan,
                              _coefficient_stream, _level_blocks, _level_terms,
                              _term_matrix, covariance_kernel,
                              dyadic_times, empirical_covariance,
                              fbm_scaling, simulate, target_autocovariance)

from level_terms import per_time_level_terms
from transforms import full_values, full_x, inverse_transform, time_samples


def _plan(pair, meyer, **kw):
    defaults = dict(times=dyadic_times(-1.0, 1.0, 6), J_detail=2, K=4,
                    resolution=6)
    defaults.update(kw)
    return SynthesisPlan(pair, meyer, **defaults)


def test_dyadic_times():
    t = dyadic_times(-1.0, 1.0, 3)
    assert t[0] == -1.0 and t[-1] == 1.0
    assert np.allclose(np.diff(t), 0.125)


def test_plan_validation(meyer, ou_pair):
    with pytest.raises(ProcsimError):
        _plan(ou_pair, meyer, times=np.array([0.3]))  # off the dyadic grid
    with pytest.raises(ProcsimError):
        _plan(ou_pair, meyer, J_detail=-1)
    with pytest.raises(ProcsimError):
        _plan(ou_pair, meyer, synthesis_side="middle")
    with pytest.raises(ProcsimError):
        # coarse detail levels overlap the approximation block
        _plan(ou_pair, meyer, j_coarse=-2, include_approximation=True)


@pytest.mark.parametrize("field, value", [
    ("J_detail", 1.5), ("K", 2.5), ("K", 4.0), ("n_paths", 1.5),
    ("n_paths", True), ("j_coarse", -1.0), ("resolution", 6.0),
    ("seed", 0.5), ("seed", False), ("seed", -1)])
def test_plan_refuses_non_integer_counts(meyer, ou_pair, field, value):
    kw = {field: value}
    if field == "j_coarse":
        kw["include_approximation"] = False
    with pytest.raises(ProcsimError):
        _plan(ou_pair, meyer, **kw)


def test_plan_accepts_numpy_integers(meyer, ou_pair):
    plan = _plan(ou_pair, meyer, K=np.int64(4), n_paths=np.int32(3),
                 seed=np.uint64(7))
    assert len(plan.term_keys()) == 4 * 9


def test_forced_key_outside_the_plan_is_refused(meyer, ou_pair):
    plan = _plan(ou_pair, meyer, n_paths=2)
    for key in (("wavelet", 3, 0), ("wavelet", 2, 5), ("Wavelet", 0, 0),
                ("approximation", 1, 0)):
        with pytest.raises(ProcsimError, match="not in the plan"):
            simulate(plan, forced={("wavelet", 0, 0): 1.0, key: 1.0})


def test_forced_zero_coefficients_give_zero_paths(meyer, ou_pair):
    plan = _plan(ou_pair, meyer, n_paths=2)
    forced = {key: 0.0 for key in plan.term_keys()}
    ens = simulate(plan, forced=forced)
    assert np.all(ens.values == 0.0)


@pytest.mark.parametrize("wavelet_name, overrides, key", [
    ("meyer", {}, ("wavelet", 2, 3)),
    # Daubechies spectra fill the whole grid: the terms must use the same
    # 64 pi truncation as the built members at every resolution
    ("db4", dict(resolution=10, J_detail=0, include_approximation=False),
     ("wavelet", 0, 1)),
], ids=["meyer", "db4"])
def test_single_forced_coefficient_matches_member(request, ou_pair,
                                                  wavelet_name, overrides,
                                                  key):
    # one coefficient 1, all else 0: the path equals the un-normalized
    # member, cross-checked against the x-domain inverse transform
    wavelet = request.getfixturevalue(wavelet_name)
    plan = _plan(ou_pair, wavelet, n_paths=1, **overrides)
    forced = {k: 0.0 for k in plan.term_keys()}
    forced[key] = 1.0
    ens = simulate(plan, forced=forced)
    builder = FamilyBuilder(wavelet, ou_pair)
    _, j, k = key
    member = builder.build_member(FamilyIndex(j, k, "primal", "wavelet"))
    series = time_samples(member)
    for i, t in enumerate(ens.times):
        pos = int(round((t - series.t0) / series.dt))
        assert abs(ens.values[0, i] - series.values[pos].real) < 1e-9


def test_linearity_of_forced_synthesis(meyer, ou_pair):
    plan = _plan(ou_pair, meyer, n_paths=1)
    keys = plan.term_keys()
    rng = np.random.default_rng(5)
    c1 = {k: float(v) for k, v in zip(keys, rng.standard_normal(len(keys)))}
    c2 = {k: float(v) for k, v in zip(keys, rng.standard_normal(len(keys)))}
    csum = {k: c1[k] + c2[k] for k in keys}
    a = simulate(plan, forced=c1).values
    b = simulate(plan, forced=c2).values
    s = simulate(plan, forced=csum).values
    assert np.max(np.abs(a + b - s)) < 1e-12


def test_bit_exact_reproducibility(meyer, ou_pair):
    plan = _plan(ou_pair, meyer, n_paths=5, seed=123)
    a = simulate(plan)
    b = simulate(plan)
    assert np.array_equal(a.values, b.values)
    c = simulate(_plan(ou_pair, meyer, n_paths=5, seed=124))
    assert not np.array_equal(a.values, c.values)


def test_target_autocovariance_ou(ou_pair):
    # at u = 0 the Lorentzian tail beyond x_max adds ~1/(pi x_max) ~ 8e-5
    assert target_autocovariance(ou_pair, 0.0) == pytest.approx(0.5, abs=2e-4)
    assert target_autocovariance(ou_pair, 1.0) == pytest.approx(
        math.exp(-1.0) / 2.0, abs=1e-6)
    assert target_autocovariance(ou_pair, 2.5) == pytest.approx(
        target_autocovariance(ou_pair, -2.5), abs=1e-12)


def test_target_autocovariance_unsupported(meyer):
    pair = FilterPair(FractionalFilter(1.2), FractionalFilter(1.2))
    with pytest.raises(ProcsimError):
        target_autocovariance(pair, 1.0)


def test_kernel_symmetry_and_monotonicity(meyer, ou_pair):
    t = np.array([0.5, -0.25, 1.0])
    s = np.array([-0.25, 0.5, 0.0])
    plan = _plan(ou_pair, meyer)
    k_ts = covariance_kernel(plan, t, s)
    k_st = covariance_kernel(plan, s, t)
    assert np.array_equal(k_ts, k_st)
    # K(0,0) is a sum of squares: nondecreasing in J and in K
    base = covariance_kernel(plan, 0.0, 0.0)[0]
    more_j = covariance_kernel(_plan(ou_pair, meyer, J_detail=3), 0.0, 0.0)[0]
    more_k = covariance_kernel(_plan(ou_pair, meyer, K=8), 0.0, 0.0)[0]
    assert more_j >= base - 1e-15
    assert more_k >= base - 1e-15


def test_kernel_against_brute_force_member_sum(meyer, ou_pair):
    # oracle: explicit sum of member(t) member(s) over the truncation,
    # with members sampled by the x-domain inverse transform
    plan = _plan(ou_pair, meyer, J_detail=1, K=3)
    builder = FamilyBuilder(meyer, ou_pair)
    approx_builder = FamilyBuilder(meyer, FilterPair(ou_pair.h2, ou_pair.h2))
    t, s = 0.5, -0.25

    def member_value(bld, idx, t):
        series = time_samples(bld.build_member(idx))
        pos = int(round((t - series.t0) / series.dt))
        return series.values[pos].real

    total = 0.0
    for k in range(-3, 4):
        idx = FamilyIndex(0, k, "primal", "approximation")
        total += member_value(approx_builder, idx, t) \
            * member_value(approx_builder, idx, s)
        for j in (0, 1):
            idx = FamilyIndex(j, k, "primal", "wavelet")
            total += member_value(builder, idx, t) \
                * member_value(builder, idx, s)
    kernel = covariance_kernel(plan, t, s)[0]
    assert abs(kernel - total) < 1e-9


def test_empirical_covariance_white_noise():
    rng = np.random.default_rng(11)
    times = np.arange(5) * 0.25
    values = rng.standard_normal((2000, 5))
    ens = PathEnsemble(times, values, {})
    stats = empirical_covariance(ens, [(0.0, 0.0), (0.0, 1.0)])
    var = stats[0]
    assert abs(var["estimate"] - 1.0) < 3.0 * var["se"]
    off = stats[1]
    assert abs(off["estimate"]) < 3.0 * off["se"]


def test_empirical_covariance_needs_paths():
    ens = PathEnsemble(np.array([0.0]), np.zeros((10, 1)), {})
    with pytest.raises(ProcsimError):
        empirical_covariance(ens, [(0.0, 0.0)])


def test_empirical_covariance_rate():
    # doubling the paths shrinks the jackknife se by sqrt 2 within 20%
    rng = np.random.default_rng(3)
    times = np.array([0.0])
    big = rng.standard_normal((8000, 1))
    small = big[:4000]
    se_small = empirical_covariance(PathEnsemble(times, small, {}),
                                    [(0.0, 0.0)])[0]["se"]
    se_big = empirical_covariance(PathEnsemble(times, big, {}),
                                  [(0.0, 0.0)])[0]["se"]
    assert abs(se_small / se_big - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)


def test_fbm_delta_band_validation():
    with pytest.raises(ProcsimError):
        fbm_scaling(1.2, [2.0], J_detail=8)
    with pytest.raises(ProcsimError):
        fbm_scaling(1.2, [2.0**-9], J_detail=8)
    with pytest.raises(ProcsimError):
        fbm_scaling(0.4, [0.25])


def test_negative_level_terms_consistent(meyer, ou_pair):
    # the level-wise evaluator against its two definitions: the gridded
    # FFT profile at a level j >= 0, and the direct quadrature over the
    # level spectrum at a coarse level j < 0, where tau falls off any grid
    builder = FamilyBuilder(meyer, ou_pair)
    ks = np.array([-3, 0, 5])
    profile = inverse_transform(builder.level_spectrum(1, "primal",
                                                       "wavelet")[0])
    idx = np.array([5000, 32668, 32805, 33068])  # 32768 is tau = 0
    times = (profile.t0 + profile.dt * idx) / 2.0
    terms = _level_terms(builder, 1, "primal", "wavelet", ks, times)
    # tau = 2 t - k sits k / dt samples below the profile sample idx
    shift = np.rint(ks / profile.dt).astype(int)
    gridded = math.sqrt(2.0) * profile.values[idx[None, :]
                                              - shift[:, None]].real
    assert np.max(np.abs(terms - gridded)) < 1e-9

    j = -3
    times = np.array([-1.5, 0.0, 0.25, 3.0])
    spec, _ = builder.level_spectrum(j, "primal", "wavelet")
    tau = 2.0**j * times[None, :] - ks[:, None]
    quad = (np.exp(1j * np.multiply.outer(tau, full_x(spec.grid)))
            @ full_values(spec) * spec.grid.dx / (2.0 * np.pi))
    terms = _level_terms(builder, j, "primal", "wavelet", ks, times)
    assert np.max(np.abs(terms - 2.0 ** (j / 2.0) * quad.real)) < 1e-9


def test_terms_vanish_outside_profile_window(meyer, ou_pair):
    # at j = 9, t = 2 gives tau = 1024, outside the profile window
    # [-512, 512); folding the spectrum onto one 2 pi period alone would
    # return the alias g_9(0), the value of the same term at t = 0
    plan = _plan(ou_pair, meyer, times=np.array([0.0, 2.0]), J_detail=9,
                 K=1, include_approximation=False)
    m = _term_matrix(plan)
    row = plan.term_keys().index(("wavelet", 9, 0))
    assert abs(m[row, 0]) > 1e-3
    assert m[row, 1] == 0.0


def test_level_scale_is_multiplied_back(meyer):
    # exp_gamma 1 level spectra past |x| = 300 are stored divided by
    # e^{log_scale}; the terms must carry that factor, not drop the level
    pair = FilterPair(ExpGammaFilter(1.0), ExpGammaFilter(1.0))
    builder = FamilyBuilder(meyer, pair)
    ks, times = np.arange(-4, 5), np.array([-0.5, 0.0, 0.25])
    for j in (5, 8):
        # primal: the quadrature weighs at most 4 pi / dy samples of
        # |G| <= e^{-2^j 2 pi / 3} (Meyer support |y| >= 2 pi / 3) by
        # dy / 2 pi; level 8 is stored divided by e^{-536}, level 5 is not
        terms = _level_terms(builder, j, "primal", "wavelet", ks, times)
        bound = 2.0 ** (j / 2.0) * 2.0 * math.exp(-2.0**j * 2.0 * np.pi / 3.0)
        assert 0.0 < np.max(np.abs(terms)) <= bound
    # dual: level 6's terms are finite and larger than level 5's, but
    # their squares overflow K(t, t); level 7's factor e^{1072} overflows
    t = np.array([0.0, 0.25])
    level5, level6 = (_level_terms(builder, j, "dual", "wavelet", ks, t)
                      for j in (5, 6))
    assert np.all(np.isfinite(level6))
    assert np.max(np.abs(level6)) > np.max(np.abs(level5))

    def diagonal(J_detail):
        plan = _plan(pair, meyer, J_detail=J_detail, K=8,
                     synthesis_side="dual", include_approximation=False)
        return covariance_kernel(plan, t, t)

    assert np.all(np.isfinite(diagonal(5)))
    with pytest.raises(ProcsimError, match="not finite"):
        diagonal(6)
    with pytest.raises(ProcsimError, match="level 7"):
        diagonal(7)


def test_non_finite_kernel_names_the_first_bad_pair(meyer):
    # OU analysis filter, exp_gamma 1 synthesis filter: the dual level-6
    # terms are finite, their products are not
    pair = FilterPair(OUFilter(), ExpGammaFilter(1.0))
    plan = SynthesisPlan(pair, meyer, times=np.array([0.0]), J_detail=6,
                         K=8, synthesis_side="dual",
                         include_approximation=False)
    with pytest.raises(ProcsimError,
                       match=r"\(t, s\) = \(0\.0, 0\.0\) is not finite"):
        covariance_kernel(plan, [0.0, 0.25, 0.5], [0.0, 0.0, 0.25])
    with pytest.raises(ProcsimError,
                       match=r"\(t, s\) = \(0\.5, 0\.25\) is not finite"):
        covariance_kernel(plan, [0.5, 0.0], [0.25, 0.0])


@pytest.mark.parametrize("wavelet_name, j, times", [
    ("meyer", 0, np.array([0.25, -0.5, 0.25, 0.25, 1.0, -0.5])),
    ("meyer", 1, np.array([-3.75, -0.125, -1.0, -0.0078125, 2.5])),
    ("meyer", -3, np.array([-4200.0, -9.0, -1.5, 0.0, 0.25, 40.0,
                            4100.0])),
    ("meyer", 9, np.array([-2.0, -0.5, 0.0, 2.0**-10, 0.5, 507 / 512,
                           2.0])),
    ("db4", 0, np.array([-1.5, -0.25, 0.0, 0.3125, 0.3125, 2.0])),
    ("meyer", 2, dyadic_times(-2.0, 2.0, 10)[1000:1257]),
], ids=["repeated", "negative", "j-3", "j9", "db4", "dense-257"])
def test_level_terms_match_per_time_reference(request, ou_pair,
                                              wavelet_name, j, times):
    # one FFT row per distinct fractional part of 2^j t against one per
    # time; t = +-2 at j = 9 and t = -4200, 4100 at j = -3 put some or
    # all of their terms outside the profile window |tau| < 512
    builder = FamilyBuilder(request.getfixturevalue(wavelet_name), ou_pair)
    ks = np.arange(-8, 9)
    for side in ("primal", "dual"):
        terms = _level_terms(builder, j, side, "wavelet", ks, times)
        reference = per_time_level_terms(builder, j, side, "wavelet", ks,
                                         times)
        assert terms.shape == (len(ks), len(times))
        assert np.max(np.abs(terms - reference)) \
            <= 1e-13 * np.max(np.abs(reference))
        assert np.array_equal(terms == 0.0, reference == 0.0)


def test_each_level_transforms_one_row_per_fraction(meyer, ou_pair,
                                                    monkeypatch):
    # times on the 2^-6 grid: level j sees the fractional parts of 2^j t,
    # 2^{6-j} of them below the resolution and a single one from j = 6 on
    rows = []
    fft = np.fft.fft

    def counting_fft(a, *args, **kw):
        rows.append(a.shape[0])
        return fft(a, *args, **kw)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    plan = _plan(ou_pair, meyer, J_detail=8, include_approximation=False)
    _term_matrix(plan)
    assert rows == [2 ** max(plan.resolution - j, 0)
                    for j in range(plan.J_detail + 1)]
    assert rows[plan.resolution:] == [1] * (plan.J_detail + 1
                                            - plan.resolution)


def _dense_synthesis(plan):
    """The dense reference: every term key's stream drawn into one column
    of an n_paths x n_terms matrix, then one product with all terms."""
    keys = plan.term_keys()
    coeffs = np.empty((plan.n_paths, len(keys)))
    block_id = {"approximation": 0, "wavelet": 1}
    for col, (block, j, k) in enumerate(keys):
        seq = np.random.SeedSequence((plan.seed, block_id[block],
                                      j + 2**31, k + 2**31))
        gen = np.random.Generator(np.random.Philox(seq))
        coeffs[:, col] = gen.standard_normal(plan.n_paths)
    return coeffs, coeffs @ _term_matrix(plan)


@pytest.mark.parametrize("wavelet_name, overrides", [
    ("meyer", {}),
    ("meyer", dict(j_coarse=-2, include_approximation=False)),
    ("db4", dict(J_detail=1)),
], ids=["meyer", "meyer-coarse", "db4"])
def test_simulate_matches_dense_synthesis(request, ou_pair, wavelet_name,
                                          overrides):
    wavelet = request.getfixturevalue(wavelet_name)
    plan = _plan(ou_pair, wavelet, n_paths=300, seed=9, **overrides)
    coeffs, dense = _dense_synthesis(plan)
    assert np.max(np.abs(simulate(plan).values - dense)) < 1e-12
    # the level blocks partition the term keys in order, and each key's
    # stream is its column of the dense coefficients, bit for bit
    start = 0
    for keys, terms in _level_blocks(plan):
        stop = start + len(keys)
        assert keys == plan.term_keys()[start:stop]
        assert terms.shape == (2 * plan.K + 1, len(plan.times))
        for col, key in enumerate(keys, start):
            draws = _coefficient_stream(plan, key).standard_normal(
                plan.n_paths)
            assert np.array_equal(draws, coeffs[:, col])
        start = stop
    assert start == coeffs.shape[1]


@pytest.mark.parametrize("n_paths", [1, 8, 300, 2500])
def test_simulate_does_not_depend_on_the_path_block(meyer, ou_pair,
                                                    monkeypatch, n_paths):
    # 7 divides none of the counts, and 8 = 7 + 1 would leave a one-path
    # block if the blocks were not balanced; with one draw per thread as
    # the threshold every block is split over the threads, and 3 threads
    # cut the 9 keys of a level into uneven slices for n_paths = 1
    plan = _plan(ou_pair, meyer, n_paths=n_paths, seed=4)
    forced = {("wavelet", 1, -2): 0.5, ("approximation", 0, 3): -1.25}
    default = [simulate(plan).values, simulate(plan, forced=forced).values]
    monkeypatch.setattr(procsim, "THREAD_DRAWS", 1)
    for threads in (1, 2, 3):
        monkeypatch.setattr(procsim, "_fill_threads", lambda: threads)
        for block in (7, n_paths, n_paths + 5):
            monkeypatch.setattr(procsim, "PATH_BLOCK", block)
            assert np.array_equal(simulate(plan).values, default[0])
            assert np.array_equal(simulate(plan, forced=forced).values,
                                  default[1])


def test_simulate_starts_threads_only_above_the_threshold(meyer, ou_pair,
                                                          monkeypatch):
    # the CLI's default 100 paths x 129 keys per block stay on the calling
    # thread; 1024 paths are split, and a level whose terms overflow still
    # raises with no fill thread left running
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("simulate made a thread pool")

    monkeypatch.setattr(procsim, "_fill_threads", lambda: 2)
    plan = _plan(ou_pair, meyer, J_detail=0, K=64, n_paths=100)
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        simulate(plan)
        with pytest.raises(AssertionError, match="thread pool"):
            simulate(replace(plan, n_paths=1024))
    threads = threading.active_count()
    pair = FilterPair(ExpGammaFilter(1.0), ExpGammaFilter(1.0))
    plan = _plan(pair, meyer, J_detail=7, K=64, n_paths=1024,
                 synthesis_side="dual", include_approximation=False)
    with pytest.raises(ProcsimError, match="level 7"):
        simulate(plan)
    assert threading.active_count() == threads


@pytest.mark.parametrize("n_paths", [4000, 16000])
def test_simulate_peak_memory_is_one_path_block(meyer, ou_pair, n_paths):
    # beyond the paths themselves, one coefficient block of PATH_BLOCK
    # paths (1.06 MB at K = 64) and one level's terms, at any path count:
    # one level's coefficients for every path would be 4.1 MB at 4000
    # paths and 16.5 MB at 16000
    times = dyadic_times(-2.0, 2.0, 10)
    times = times[np.abs(times / 0.25 - np.round(times / 0.25)) < 1e-9]
    plan = SynthesisPlan(ou_pair, meyer, times=times, J_detail=6, K=64,
                         n_paths=n_paths)
    simulate(plan)  # the first call also allocates one-time caches
    tracemalloc.start()
    try:
        values = simulate(plan).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < 4e6
