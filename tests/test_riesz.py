import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaguelab.family import ROLES, SIDES, FamilyBuilder, FamilyIndex
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              MSTApproxFilter, OUFilter, UnitFilter,
                              unit_pair)
from vaguelab.grids import (GridError, SampledSpectrum, default_grid,
                            inner_product, inverse_transform_at, l2_norm,
                            make_grid)
from vaguelab.mra import MEYER_PHI_RADIUS, WaveletSpec
from vaguelab.procsim import _level_terms
from vaguelab.riesz import (RieszError, Truncation, _inner_products,
                            biorthogonality_defect, bracket_sum, check_level,
                            gram, refinement_identity, riesz_bounds)

from transforms import inverse_transform


def test_truncation_validation_and_size():
    tr = Truncation(2, 3)
    assert len(tr.indices("primal")) == (2 + 1 + 1) * 7  # approx + 3 levels
    tr2 = Truncation(2, 3, include_approximation=False)
    assert len(tr2.indices("primal")) == 3 * 7
    with pytest.raises(RieszError):
        Truncation(-1, 3)
    with pytest.raises(RieszError):
        Truncation(2, 0)
    # np.int64 counts are integers; floats and bools are not
    assert len(Truncation(np.int64(1), np.int64(2)).indices("dual")) == 15
    for j, k in ((2, 1.5), (2, 2.0), (1.5, 3), (2, True), (False, 3)):
        with pytest.raises(RieszError, match="must be an integer"):
            Truncation(j, k)


def test_unit_gram_is_identity(unit_builder):
    g = gram(unit_builder, "primal", Truncation(3, 8))
    eye = np.eye(g.dimension)
    assert np.max(np.abs(g.matrix - eye)) < 1e-8
    c1, c2, residual = riesz_bounds(g)
    assert residual < 1e-12
    assert abs(c1 - 1.0) < 1e-4 and abs(c2 - 1.0) < 1e-4


def test_gram_normalized_diagonal(ou_builder):
    g = gram(ou_builder, "primal", Truncation(2, 4))
    assert np.max(np.abs(np.diag(g.matrix) - 1.0)) < 1e-9


def test_gram_matches_member_inner_products(ou_builder):
    # oracle: one quadrature per pair of built member spectra, each
    # divided by its norm
    g = gram(ou_builder, "dual", Truncation(2, 3))
    spectra = []
    for i in g.index_map:
        s = ou_builder.build_member(i).spectrum
        spectra.append(SampledSpectrum(s.grid, s.values / l2_norm(s)))
    oracle = np.array([[inner_product(a, b) for b in spectra]
                       for a in spectra])
    assert np.max(np.abs(g.matrix - oracle)) < 1e-12


def test_biorthogonality_matches_member_inner_products(ou_builder, meyer):
    # the second grid cuts the level-1 spectra at 4 pi: a large same-role
    # defect next to a roundoff-level cross-role one
    truncating = FamilyBuilder(meyer, unit_pair(),
                               make_grid(4.0 * np.pi, 2**10))
    tr = Truncation(1, 3)
    duals = tr.indices("dual")
    primals = tr.indices("primal")
    cross_role = np.not_equal.outer([i.role for i in duals],
                                    [i.role for i in primals])
    for builder in (ou_builder, truncating):
        left = [builder.build_member(i).spectrum for i in duals]
        right = [builder.build_member(i).spectrum for i in primals]
        oracle = np.array([[inner_product(a, b) for b in right]
                           for a in left])
        cross = _inner_products(builder, duals, primals)
        assert np.max(np.abs(cross - oracle)) < 1e-12
        defect = np.abs(oracle - np.eye(len(duals)))
        stats = biorthogonality_defect(builder, tr).statistics
        assert abs(stats["max_defect"] - np.max(defect)) < 1e-12
        assert abs(stats["max_cross_block_defect"]
                   - np.max(defect[cross_role])) < 1e-12
    assert stats["max_defect"] > 0.01
    assert stats["max_cross_block_defect"] < 1e-12


def _full_transform_entries(builder, left, right):
    """<m_a, m_b> read off one full inverse transform per generator pair."""
    grid = builder.grid
    gens = {(i.j, i.side, i.role): builder.generator(i.j, i.side, i.role)[0]
            for i in left + right}
    series = {}
    out = np.empty((len(left), len(right)), dtype=complex)
    for ia, a in enumerate(left):
        for ib, b in enumerate(right):
            pair = ((a.j, a.side, a.role), (b.j, b.side, b.role))
            if pair not in series:
                series[pair] = inverse_transform(SampledSpectrum(
                    grid, gens[pair[0]] * np.conj(gens[pair[1]])))
            lag = 2.0 ** (-a.j) * a.k - 2.0 ** (-b.j) * b.k
            out[ia, ib] = series[pair].values[round((-lag - grid.t0)
                                                    / grid.dt)]
    return out


def test_gram_bit_equals_entry_by_entry_reference(meyer, db4, ou_pair):
    # reference: one Python complex division per raw entry, the upper
    # triangle and its conjugate below and on the diagonal; the raw folded
    # entries themselves lie within 2 ulp of the largest entry of one full
    # transform per pair, on both sides and for the cross product
    tr = Truncation(1, 2)
    duals, primals = tr.indices("dual"), tr.indices("primal")
    for wavelet in (meyer, db4):
        builder = FamilyBuilder(wavelet, ou_pair)
        cross = _inner_products(builder, duals, primals)
        full = _full_transform_entries(builder, duals, primals)
        assert (np.max(np.abs(cross - full))
                <= 2 * np.spacing(np.max(np.abs(full))))
        for side in SIDES:
            g = gram(builder, side, tr)
            idxs = list(g.index_map)
            raw = _inner_products(builder, idxs, list(idxs))
            full = _full_transform_entries(builder, idxs, idxs)
            assert (np.max(np.abs(raw - full))
                    <= 2 * np.spacing(np.max(np.abs(full))))
            norms = [l2_norm(SampledSpectrum(builder.grid, builder.generator(
                i.j, i.side, i.role)[0])) for i in idxs]
            ref = np.empty_like(g.matrix)
            for ia in range(len(idxs)):
                for ib in range(ia, len(idxs)):
                    val = complex(raw[ia, ib]) / (norms[ia] * norms[ib])
                    ref[ia, ib], ref[ib, ia] = val, val.conjugate()
            assert g.matrix.tobytes() == ref.tobytes()


@pytest.fixture(scope="session")
def fold_builders(ou_builder, db4, ou_pair):
    # on 48 pi / 2^12, dt = 1/48 and s = gcd(n, q) is 16 for level-0
    # pairs and 1 at level 4, not the 2^(6 - max j) of the default grid
    grid = make_grid(48.0 * np.pi, 2**12)
    return {"meyer": ou_builder,
            "meyer 48pi": FamilyBuilder(ou_builder.wavelet, ou_pair, grid),
            "db4 48pi": FamilyBuilder(db4, ou_pair, grid)}


@st.composite
def _fold_case(draw):
    """A builder name and two index lists whose lags are on the time grid."""
    name = draw(st.sampled_from(["meyer", "meyer 48pi", "db4 48pi"]))
    # |lag| <= 2 k_max stays inside the time window n dt / 2: 512 or 42.7
    k_max = 255 if name == "meyer" else 21

    def index(side):
        j = draw(st.integers(0, 4))
        return FamilyIndex(j, draw(st.integers(-k_max, k_max)), side,
                           draw(st.sampled_from(ROLES)))

    sides = draw(st.sampled_from([("primal", "primal"), ("dual", "dual"),
                                  ("dual", "primal")]))
    left = draw(st.lists(st.builds(index, st.just(sides[0])), min_size=1,
                         max_size=4))
    right = draw(st.lists(st.builds(index, st.just(sides[1])), min_size=1,
                          max_size=4))
    return name, left, right


@settings(max_examples=40, deadline=None)
@given(case=_fold_case())
# lag +n dt / 2 = 512 on the default grid: q = -n / 2, the first sample
@example(case=("meyer", [FamilyIndex(0, 256, "primal", "wavelet"),
                         FamilyIndex(0, 0, "primal", "approximation")],
               [FamilyIndex(0, -256, "primal", "wavelet"),
                FamilyIndex(1, -512, "primal", "wavelet")]))
def test_folded_entries_match_the_full_transform(fold_builders, case):
    # each entry is a sum of n products: roundoff of its FFT is bounded by
    # a few eps log2(n) times the l1 mass (dx / 2 pi) sum |ga gb|
    name, left, right = case
    builder = fold_builders[name]
    grid = builder.grid
    got = _inner_products(builder, left, right)
    want = _full_transform_entries(builder, left, right)
    for ia, a in enumerate(left):
        ga = builder.generator(a.j, a.side, a.role)[0]
        for ib, b in enumerate(right):
            gb = builder.generator(b.j, b.side, b.role)[0]
            mass = np.sum(np.abs(ga * gb)) * grid.dx / (2.0 * np.pi)
            tol = 4.0 * np.log2(grid.n) * np.finfo(float).eps * mass
            assert abs(got[ia, ib] - want[ia, ib]) <= tol, (a, b)


def test_lag_of_minus_half_the_window_is_refused(ou_builder):
    # lag -n dt / 2 is t = +n dt / 2, one past the last time sample
    with pytest.raises(RieszError):
        _inner_products(ou_builder,
                        [FamilyIndex(0, -256, "primal", "wavelet")],
                        [FamilyIndex(0, 256, "primal", "wavelet")])


def test_gram_skips_blocks_below_the_diagonal(ou_builder, monkeypatch):
    # 5 generators: the 10 blocks below the diagonal are never read
    calls = []

    def counting(spectrum, q):
        calls.append(1)
        return inverse_transform_at(spectrum, q)

    monkeypatch.setattr("vaguelab.riesz.inverse_transform_at", counting)
    idxs = Truncation(4, 2, False).indices("primal")
    raw = _inner_products(ou_builder, idxs, idxs)
    assert len(calls) == 15
    gen = np.repeat(np.arange(5), 5)
    assert not np.any(raw[np.greater.outer(gen, gen)])
    _inner_products(ou_builder, idxs, list(idxs))
    assert len(calls) == 15 + 25


def test_gram_refuses_lags_off_the_time_grid(meyer):
    # dt = 1/48: shifts 2^-4 k are multiples of dt, shifts 2^-5 k are not
    builder = FamilyBuilder(meyer, unit_pair(), make_grid(48.0 * np.pi, 2**12))
    with pytest.raises(RieszError):
        gram(builder, "primal", Truncation(5, 1))
    gram(builder, "primal", Truncation(4, 1))


def test_check_level_refuses_levels_the_grid_cuts():
    # the level-J Meyer wavelet spectrum reaches 2^(J+1) 4 pi / 3: the
    # default grid (x_max = 64 pi) holds J <= 4
    grid = default_grid()
    check_level(4, grid, MEYER_PHI_RADIUS)
    with pytest.raises(RieszError, match="spectra"):
        check_level(5, grid, MEYER_PHI_RADIUS)
    # shifts 2^-7 k are off the dt = 2^-6 lattice: a rule for shifts only
    with pytest.raises(RieszError, match="shifts"):
        check_level(7, grid)
    check_level(7, grid, shifts=False)


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_gram_section_is_principal_submatrix(ou_builder, side):
    # synthesis_bound reads its K section out of the 2K one
    small = gram(ou_builder, side, Truncation(2, 3, False))
    big = gram(ou_builder, side, Truncation(2, 6, False))
    keep = [i for i, idx in enumerate(big.index_map) if abs(idx.k) <= 3]
    assert small.index_map == tuple(big.index_map[i] for i in keep)
    assert small.matrix.tobytes() == big.matrix[np.ix_(keep, keep)].tobytes()


def test_riesz_bounds_stability_ou(ou_builder):
    tr16 = Truncation(2, 8)
    tr32 = Truncation(2, 16)
    c1a, c2a, _ = riesz_bounds(gram(ou_builder, "primal", tr16))
    c1b, c2b, _ = riesz_bounds(gram(ou_builder, "primal", tr32))
    assert c1a > 0.1
    # widening the section cannot improve conditioning much
    assert c1b >= 0.9 * c1a
    assert c2b <= 1.1 * c2a


def test_biorthogonality_exact_pairs(ou_builder, meyer, mst_pair):
    tr = Truncation(2, 4)
    assert biorthogonality_defect(ou_builder, tr).passed
    builder = FamilyBuilder(meyer, mst_pair)
    result = biorthogonality_defect(builder, tr)
    assert result.passed
    assert result.statistics["max_defect"] < 1e-6


def test_biorthogonality_violating_pair(meyer):
    # h2/h1 not 2 pi periodic: the phi-vs-psi cross block picks up mass
    bad = FilterPair(OUFilter(), FractionalFilter(1.0))
    builder = FamilyBuilder(meyer, bad)
    result = biorthogonality_defect(builder, Truncation(2, 4))
    assert result.passed is False
    assert result.statistics["max_cross_block_defect"] > 0.1


def test_scaled_generators_refused_in_every_entry_point(meyer):
    # exp(|x|^2) on the dual side overflows without a log-scale; the
    # defect of scaled spectra would be an artefact of the scale, so the
    # biorthogonality check refuses them as the Gram matrix does
    builder = FamilyBuilder(meyer, FilterPair(OUFilter(), ExpGammaFilter(2.0)))
    tr = Truncation(2, 2)
    with pytest.raises(RieszError, match="scaled spectra"):
        gram(builder, "dual", tr)
    with pytest.raises(RieszError, match="scaled spectra"):
        biorthogonality_defect(builder, tr)
    with pytest.raises(RieszError, match="scaled spectra"):
        refinement_identity(builder, 4)
    gram(builder, "primal", tr)  # primal spectra up to j = 2 are unscaled


def test_bracket_sum_unit(unit_builder):
    result = bracket_sum(unit_builder)
    assert result.passed
    assert abs(result.statistics["lower"] - 1.0) < 1e-10
    assert abs(result.statistics["upper"] - 1.0) < 1e-10


def test_bracket_sum_ou(ou_builder):
    result = bracket_sum(ou_builder)
    assert result.passed
    assert 1e-3 < result.statistics["lower"] <= result.statistics["upper"] < 1e3


def test_bracket_sum_daubechies(db4, ou_pair):
    result = bracket_sum(FamilyBuilder(db4, ou_pair))
    assert result.passed


def _ring_bracket_sum(wavelet, pair, n_samples=1024, tail_tol=1e-10,
                      k_cap=4096):
    """Reference: sum_k |h1 phi^ (x + 2 pi k)|^2 on n_samples points of
    [-pi, pi), adding rings k = +-1, +-2, ... until a ring adds less than
    tail_tol."""
    x = -np.pi + 2.0 * np.pi * np.arange(n_samples) / n_samples
    total = np.abs(pair.h1.eval(x) * np.asarray(wavelet.phi_hat(x))) ** 2
    for k in range(1, k_cap + 1):
        ring = np.zeros_like(total)
        for sgn in (1, -1):
            xs = x + 2.0 * np.pi * sgn * k
            base = np.asarray(wavelet.phi_hat(xs), dtype=complex)
            vals = np.zeros_like(base)
            mask = base != 0.0
            vals[mask] = pair.h1.eval(xs[mask]) * base[mask]
            ring += np.abs(vals) ** 2
        total += ring
        if float(np.max(ring)) < tail_tol:
            return total
    raise AssertionError("reference bracket sum did not converge")


@pytest.mark.parametrize("wavelet, h1, rtol", [
    ("meyer", UnitFilter(), 1e-12), ("meyer", OUFilter(), 1e-12),
    ("db4", OUFilter(), 1e-7)], ids=["meyer-unit", "meyer-ou", "db4-ou"])
def test_bracket_sum_matches_ring_sum(request, wavelet, h1, rtol):
    # the fold stops at the grid's 64 pi; the rings stop at a tail of
    # 1e-10, which for db4 comes before 64 pi
    wavelet = request.getfixturevalue(wavelet)
    pair = FilterPair(h1, h1)
    ref = _ring_bracket_sum(wavelet, pair)
    stats = bracket_sum(FamilyBuilder(wavelet, pair)).statistics
    for got, want in ((stats["lower"], np.min(ref)),
                      (stats["upper"], np.max(ref))):
        assert abs(got - want) <= rtol * want
    assert stats["n_samples"] == 1024 and stats["k_max"] == 32


@pytest.mark.parametrize("grid", [make_grid(48.0 * np.pi, 2**12),
                                  make_grid(np.pi, 16)],
                         ids=["fractional-period", "half-periods"])
def test_period_fold_refuses_grids_without_whole_periods(meyer, grid):
    # 48 pi / 2^11: 2 pi is 256/3 samples; pi: one period, centred on 0
    builder = FamilyBuilder(meyer, unit_pair(), grid)
    with pytest.raises(GridError):
        bracket_sum(builder)
    with pytest.raises(GridError):
        _level_terms(builder, 0, "primal", "wavelet", np.arange(-2, 3),
                     np.array([0.0, 0.5]))


def test_refinement_identity_unit(unit_builder):
    result = refinement_identity(unit_builder, j=0)
    assert result.passed
    assert result.statistics["residual_phi"] < 1e-9
    assert result.statistics["residual_eta"] < 1e-9
    assert result.statistics["residual_det"] < 1e-9
    # |det M| = 2 for the orthonormal two-scale matrix
    assert abs(result.statistics["min_abs_det"] - 2.0) < 1e-9


@pytest.mark.parametrize("j", [0, 2])
def test_refinement_identity_ou(ou_builder, j):
    assert refinement_identity(ou_builder, j=j).passed


def test_refinement_identity_mst_pole_obstruction(meyer, mst_pair):
    # the mst h1 has a non-integrable pole at 2 pi, which enters the
    # level-1 approximation support: the identity cannot be formed
    from vaguelab.filters import FilterEvalError
    with pytest.raises(FilterEvalError):
        refinement_identity(FamilyBuilder(meyer, mst_pair), j=0)


def test_refinement_identity_violating_pair(meyer):
    bad = FilterPair(OUFilter(), FractionalFilter(1.0))
    result = refinement_identity(FamilyBuilder(meyer, bad), j=0)
    assert result.passed is False
    assert result.statistics["residual_eta"] > 1e-3


def test_gram_index_map_round_trip(unit_builder):
    tr = Truncation(1, 2)
    g = gram(unit_builder, "primal", tr)
    assert len(g.index_map) == g.dimension
    assert all(idx.side == "primal" for idx in g.index_map)
