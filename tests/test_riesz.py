import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaguelab import riesz
from vaguelab.family import ROLES, SIDES, FamilyBuilder, FamilyIndex
from vaguelab.filters import (ExpGammaFilter, FilterPair, FractionalFilter,
                              MSTApproxFilter, OUComplexFilter, OUFilter,
                              RationalFilter, UnitFilter, unit_pair)
from vaguelab.grids import (GridError, SampledSpectrum, default_grid,
                            inner_product, inverse_transform_at, l2_norm,
                            make_grid)
from vaguelab.mra import MEYER_PHI_RADIUS, WaveletSpec
from vaguelab.procsim import _level_terms
from vaguelab.riesz import (RieszError, Truncation, _inner_products,
                            biorthogonality_defect, bracket_sum, check_level,
                            gram, refinement_identity, refinement_keys,
                            riesz_bounds, riesz_suite)
from vaguelab.vaguelet import synthesis_bound

from transforms import inverse_transform


def _values(builder, idxs) -> dict:
    """The generator values of idxs by (j, side, role) key, as stored."""
    keys = [(i.j, i.side, i.role) for i in idxs]
    return {key: values for key, (values, _) in
            builder.generators(keys).items()}


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
        cross = _inner_products(builder, duals, primals,
                                _values(builder, duals + primals))
        assert np.max(np.abs(cross - oracle)) < 1e-12
        defect = np.abs(oracle - np.eye(len(duals)))
        stats = biorthogonality_defect(builder, tr).statistics
        assert abs(stats["max_defect"] - np.max(defect)) < 1e-12
        assert abs(stats["max_cross_block_defect"]
                   - np.max(defect[cross_role])) < 1e-12
    assert stats["max_defect"] > 0.01
    assert stats["max_cross_block_defect"] < 1e-12


def _full_transform_entries(builder, left, right, gens):
    """<m_a, m_b> read off one full inverse transform per generator pair,
    from the generator values gens by (j, side, role) key: the product's
    full complex spectrum rebuilt by conjugate mirror
    (transforms.full_values)."""
    grid = builder.grid
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
    # reference: the inner products of the unit generators entry by entry,
    # the upper triangle and its conjugate below and on the diagonal; the
    # folded entries themselves lie within 2 ulp of the largest entry of
    # one full transform per pair, on both sides and for the cross product
    # of the stored generators
    tr = Truncation(1, 2)
    duals, primals = tr.indices("dual"), tr.indices("primal")
    for wavelet in (meyer, db4):
        builder = FamilyBuilder(wavelet, ou_pair)
        stored = _values(builder, duals + primals)
        cross = _inner_products(builder, duals, primals, stored)
        full = _full_transform_entries(builder, duals, primals, stored)
        assert (np.max(np.abs(cross - full))
                <= 2 * np.spacing(np.max(np.abs(full))))
        unit, _ = riesz._generators(builder, list(stored))
        for side in SIDES:
            g = gram(builder, side, tr)
            idxs = list(g.index_map)
            products = _inner_products(builder, idxs, list(idxs), unit)
            full = _full_transform_entries(builder, idxs, idxs, unit)
            assert (np.max(np.abs(products - full))
                    <= 2 * np.spacing(np.max(np.abs(full))))
            ref = np.empty_like(g.matrix)
            for ia in range(len(idxs)):
                for ib in range(ia, len(idxs)):
                    val = products[ia, ib]
                    ref[ia, ib], ref[ib, ia] = val, val.conjugate()
            assert g.matrix.tobytes() == ref.tobytes()


# every filter kind the CLI accepts with Meyer and db4: each as h2 next to
# the OU h1, and mst_approx, which the CLI takes only as the Meyer h1,
# with the paper's fractional h2
ORACLE_PAIRS = [
    *((wavelet, FilterPair(OUFilter(), h2)) for wavelet in ("meyer", "db4")
      for h2 in (UnitFilter(), OUFilter(), OUComplexFilter(),
                 FractionalFilter(0.3), ExpGammaFilter(1.0),
                 RationalFilter([1.0], [1.0, 0.0, 1.0]))),
    ("meyer", FilterPair(MSTApproxFilter(0.3), FractionalFilter(0.3)))]


def _oracle_gram(builder, tr, side):
    """The complex Gram section of side, read off one full inverse
    transform per generator pair of the unit generators."""
    idxs = tr.indices(side)
    unit, _ = riesz._generators(builder, [(i.j, i.side, i.role)
                                          for i in idxs])
    return _full_transform_entries(builder, idxs, idxs, unit)


@pytest.mark.filterwarnings("ignore:filter pole at x=0 absorbed")
@pytest.mark.parametrize("wavelet, pair", ORACLE_PAIRS, ids=lambda v: (
    v if isinstance(v, str) else f"{v.h1.kind}/{v.h2.kind}"))
def test_real_sections_match_the_complex_oracle(request, wavelet, pair):
    # the stated tolerance of the real sections against the eigenvalues
    # of the oracle's Hermitian part: lambda_max of the K and 2K synthesis
    # sections and C2 within 1e-13 relative, and C1^2 within 1e-13 C2^2
    # (Weyl: an eigenvalue moves by at most the norm of the change, so C1
    # of a near-singular section, as with exp_gamma, agrees only relative
    # to C2); the oracle's imaginary parts stay below 1e-15
    builder = FamilyBuilder(request.getfixturevalue(wavelet), pair)
    for side in SIDES:
        stats = synthesis_bound(builder, side, J=2, K=4).statistics
        tr = Truncation(2, 8, include_approximation=False)
        keep = [i for i, idx in enumerate(tr.indices(side))
                if abs(idx.k) <= 4]
        section = _oracle_gram(builder, tr, side)
        hermitian = 0.5 * (section + section.conj().T)
        assert math.isclose(
            stats["lambda_max"],
            np.linalg.eigvalsh(hermitian[np.ix_(keep, keep)])[-1],
            rel_tol=1e-13)
        assert math.isclose(stats["lambda_max_doubled_K"],
                            np.linalg.eigvalsh(hermitian)[-1], rel_tol=1e-13)
        c1, c2, _ = riesz_bounds(gram(builder, side, Truncation(1, 4)))
        bounds = _oracle_gram(builder, Truncation(1, 4), side)
        lo, *_, hi = np.linalg.eigvalsh(0.5 * (bounds + bounds.conj().T))
        assert math.isclose(c2, math.sqrt(hi), rel_tol=1e-13)
        assert abs(c1**2 - max(lo, 0.0)) <= 1e-13 * c2**2
        assert max(np.max(np.abs(section.imag)),
                   np.max(np.abs(bounds.imag))) <= 1e-15


@pytest.mark.parametrize("h2, log_scaled", [(OUFilter(), False),
                                            (ExpGammaFilter(2.0), True)],
                         ids=["ou", "exp_gamma"])
def test_generators_are_unit_with_the_member_log_norm(meyer, h2, log_scaled):
    # e^{|x|^2} on the dual side is stored with a log scale; every unit
    # generator is its stored values over their norm, and its log norm is
    # the member's
    builder = FamilyBuilder(meyer, FilterPair(OUFilter(), h2))
    keys = [(j, side, "wavelet") for j in (0, 2) for side in SIDES]
    unit, log_norms = riesz._generators(builder, keys)
    scales = []
    for key in keys:
        member = builder.build_member(FamilyIndex(key[0], 0, *key[1:]))
        spectrum = member.spectrum
        assert np.max(np.abs(unit[key] - spectrum.values / l2_norm(spectrum))
                      ) < 1e-15 * np.max(np.abs(unit[key]))
        assert math.isclose(log_norms[key], member.log_norm, rel_tol=1e-14)
        scales.append(member.log_scale)
    assert any(scales) is log_scaled


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
    # a few eps log2(n) times the l1 mass (dx / 2 pi) sum |ga gb| over the
    # full grid, imaginary part of the reference included
    name, left, right = case
    builder = fold_builders[name]
    grid = builder.grid
    gens = _values(builder, left + right)
    got = _inner_products(builder, left, right, gens)
    want = _full_transform_entries(builder, left, right, gens)
    for ia, a in enumerate(left):
        ga = gens[a.j, a.side, a.role]
        for ib, b in enumerate(right):
            gb = gens[b.j, b.side, b.role]
            mass = np.sum(np.abs(ga * gb)) * grid.dx / np.pi
            tol = 4.0 * np.log2(grid.n) * np.finfo(float).eps * mass
            assert abs(got[ia, ib] - want[ia, ib]) <= tol, (a, b)


def test_lag_of_minus_half_the_window_is_refused(ou_builder):
    # lag -n dt / 2 is t = +n dt / 2, one past the last time sample
    left = [FamilyIndex(0, -256, "primal", "wavelet")]
    right = [FamilyIndex(0, 256, "primal", "wavelet")]
    with pytest.raises(RieszError):
        _inner_products(ou_builder, left, right,
                        _values(ou_builder, left + right))


def test_gram_skips_blocks_below_the_diagonal(ou_builder, monkeypatch):
    # 5 generators: the 10 blocks below the diagonal are never read
    calls = []

    def counting(spectrum, q):
        calls.append(1)
        return inverse_transform_at(spectrum, q)

    monkeypatch.setattr("vaguelab.riesz.inverse_transform_at", counting)
    idxs = Truncation(4, 2, False).indices("primal")
    gens = _values(ou_builder, idxs)
    raw = _inner_products(ou_builder, idxs, idxs, gens)
    assert len(calls) == 15
    gen = np.repeat(np.arange(5), 5)
    assert not np.any(raw[np.greater.outer(gen, gen)])
    _inner_products(ou_builder, idxs, list(idxs), gens)
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
    # 1e-10, which for db4 comes before 64 pi; both are divided by their
    # mean over the period
    wavelet = request.getfixturevalue(wavelet)
    pair = FilterPair(h1, h1)
    ref = _ring_bracket_sum(wavelet, pair)
    ref /= np.mean(ref)
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


@pytest.mark.filterwarnings("ignore:filter pole at x=0 absorbed")
@pytest.mark.parametrize("wavelet", ["meyer", "db4"])
def test_refinement_identity_skips_the_poles_of_the_filters(request, wavelet):
    # h2 = (ix)^(-1/2): the generators absorb its pole at x = 0, V_0 cannot
    # be formed there; the residuals skip that one point of the working grid
    wavelet = request.getfixturevalue(wavelet)
    ou, pole = (refinement_identity(FamilyBuilder(wavelet, FilterPair(
        OUFilter(), h2)), j=0).statistics
        for h2 in (OUFilter(), FractionalFilter(-0.5)))
    assert pole["excluded_points"] == ou["excluded_points"] + 1
    assert math.isfinite(pole["residual_eta"])


def test_filter_ratio_finds_every_pole():
    # 1 / (x^2 - 1) has poles at +-1; h2 / h1 elsewhere as one evaluation
    pair = FilterPair(UnitFilter(), RationalFilter([1.0], [-1.0, 0.0, 1.0]))
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    ratio, defined = riesz._filter_ratio(pair, x)
    assert defined.tolist() == [True, False, True, False, True, True]
    assert ratio[~defined].tolist() == [0.0, 0.0]
    assert np.array_equal(ratio[defined], pair.h2.eval(x[defined]))


@pytest.mark.parametrize("wavelet", ["meyer", "db4"])
def test_band_reads_equal_whole_half_grid_reads(request, ou_pair, wavelet,
                                                monkeypatch):
    # bracket_sum folds only the periods the level-0 approximation band
    # touches, and refinement_identity forms xi, the support cut and the
    # residuals on Phi_{j+1}'s band: each result equals the one read over
    # the whole half grid, excluded_points included (a Daubechies band is
    # the whole half grid; the Meyer ones are a few percent of it)
    builder = FamilyBuilder(request.getfixturevalue(wavelet), ou_pair)
    keys = [(0, "primal", "approximation"), *refinement_keys(0),
            *refinement_keys(1)]
    formed: dict = {}
    riesz._generators(builder, keys, formed)

    def checks():
        return [c.statistics for c in (
            bracket_sum(builder, dict(formed)),
            refinement_identity(builder, 0, dict(formed)),
            refinement_identity(builder, 1, dict(formed)))]

    banded = checks()
    size = builder.grid.size
    if wavelet == "meyer":
        assert builder.band(2, "approximation") < size // 10
    monkeypatch.setattr(builder, "band", lambda j, role: size)
    assert banded == checks()


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


def test_riesz_suite_matches_the_checks_run_alone(ou_builder):
    # one pass over both sides' generators gives each statistic bit for
    # bit as the check computes it alone
    tr = Truncation(1, 2)
    checks = riesz_suite(ou_builder, tr, range(2))
    assert [c.name for c in checks] == [
        "riesz_bounds_primal", "riesz_bounds_dual", "biorthogonality_defect",
        "bracket_sum", "refinement_identity_j0", "refinement_identity_j1"]
    for check, side in zip(checks, ("primal", "dual")):
        g = gram(ou_builder, side, tr)
        c1, c2, residual = riesz_bounds(g)
        assert check.statistics == {"C1": c1, "C2": c2,
                                    "eigen_residual": residual,
                                    "dimension": g.dimension}
        assert check.params == {"J": 1, "K": 2}
    alone = [biorthogonality_defect(ou_builder, tr), bracket_sum(ou_builder),
             refinement_identity(ou_builder, 0),
             refinement_identity(ou_builder, 1)]
    for check, ref in zip(checks[2:], alone):
        assert (check.statistics, check.params, check.passed) == \
            (ref.statistics, ref.params, ref.passed)


def _primal(j, role):
    return (j, "primal", role)


@pytest.mark.parametrize("n_levels, held", [
    (1, [{_primal(0, "approximation"), _primal(0, "wavelet")},
         set(refinement_keys(0))]),
    (2, [{_primal(0, "approximation"), _primal(0, "wavelet"),
          _primal(1, "wavelet")},
         set(refinement_keys(0)) | {_primal(1, "wavelet")},
         set(refinement_keys(1))]),
], ids=["one-level", "two-levels"])
def test_riesz_suite_drops_each_generator_after_its_last_reader(
        db4, ou_pair, monkeypatch, n_levels, held):
    # db4 at J 1, K 8: the sections form both sides' 6 generators.
    # bracket_sum runs holding only those it and the refinement levels
    # read; refinement_identity_j{j} ends holding the keys it and the later
    # levels read, with one level its 3 keys, not the 7 generators (each
    # one held longer is 1 MB more at the peak). Liveness is read through
    # weak references, so a local name that keeps an array shows as well
    # as a key left in formed.
    builder = FamilyBuilder(db4, ou_pair)
    generators, refs, seen = builder.generators, {}, []

    def recorded(keys):
        out = generators(keys)
        refs.update((key, weakref.ref(values))
                    for key, (values, _) in out.items())
        return out

    def live():
        return {key for key, ref in refs.items() if ref() is not None}

    bracket, refinement = riesz.bracket_sum, riesz.refinement_identity

    def bracket_sum_seen(builder, formed):
        seen.append((live(), set(formed)))
        return bracket(builder, formed)

    def refinement_seen(builder, j, formed):
        result = refinement(builder, j, formed)
        seen.append((live(), set(formed)))
        return result

    monkeypatch.setattr(builder, "generators", recorded)
    monkeypatch.setattr(riesz, "bracket_sum", bracket_sum_seen)
    monkeypatch.setattr(riesz, "refinement_identity", refinement_seen)
    riesz_suite(builder, Truncation(1, 8), range(n_levels))
    assert len(refs) == 6 + n_levels
    assert seen == [(keys, keys) for keys in held]
