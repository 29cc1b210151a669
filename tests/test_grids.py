import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaguelab import grids
from vaguelab.grids import (DEFAULT_X_MAX, FourierGrid, GridError,
                            SampledSpectrum, default_grid, inner_product,
                            inverse_transform_at, inverse_transform_window,
                            l2_norm, make_grid)

from vaguelab.family import ROLES, SIDES, FamilyBuilder
from vaguelab.filters import ExpGammaFilter, FilterPair, OUFilter
from vaguelab.mra import WaveletSpec

import transforms
from transforms import (TimeSeries, forward_transform, full_x, half_spectrum,
                        hermitian_defect, inverse_transform, transform_at)


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(-1.0, 64)
    with pytest.raises(GridError):
        make_grid(10.0, 48)  # not a power of two
    with pytest.raises(GridError):
        make_grid(10.0, 8)  # too small


def test_grid_contains_zero():
    g = make_grid(32.0, 128)
    assert g.x[0] == 0.0 and g.x[-1] == g.x_max
    assert len(g.x) == g.size == g.n // 2 + 1
    assert math.isclose(g.dx, 0.5)
    assert math.isclose(g.dt, np.pi / 32.0)


@settings(max_examples=50, deadline=None)
@given(x_max=st.floats(1e-3, 1e6), log2_n=st.integers(4, 12))
@example(x_max=DEFAULT_X_MAX, log2_n=16)
def test_grid_is_mirror_exact_and_nested(x_max, log2_n):
    # the half grid is the full grid's x >= 0 bit for bit, up to x_max,
    # whose mirror -x_max is the full grid's first point; the (2 x_max, 2n)
    # grid holds it at indices 0..n/2, and x_max / 2^l divides it
    g = make_grid(x_max, 2**log2_n)
    x, full = g.x, full_x(g)
    assert x[:-1].tobytes() == full[g.n // 2:].tobytes()
    assert x[-1] == g.x_max == -full[0]
    assert full[1:g.n // 2].tobytes() == (-x[g.n // 2 - 1:0:-1]).tobytes()
    wide = make_grid(2.0 * g.x_max, 2 * g.n)
    assert wide.x[:g.size].tobytes() == x.tobytes()
    for level in (1, 2, 5):
        assert make_grid(g.x_max / 2.0**level, g.n).x.tobytes() == \
            (x / 2.0**level).tobytes()


def _random_half(g, rng, band=None):
    """Random samples of a hermitian spectrum on g's half grid, 0 from
    index band on: F(0) is real, and so is F(x_max), the sample of the
    periodic grid that is its own mirror."""
    band = g.size if band is None else band
    values = np.zeros(g.size, dtype=complex)
    values[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    values[::g.size - 1] = values[::g.size - 1].real
    return SampledSpectrum(g, values, band)


def test_gaussian_inverse_transform_closed_form():
    # oracle: the inverse transform of e^{-x^2/2} is (2 pi)^{-1/2} e^{-t^2/2}
    g = make_grid(64.0, 2**12)
    spec = SampledSpectrum(g, np.exp(-0.5 * g.x**2))
    series = inverse_transform(spec)
    expected = np.exp(-0.5 * series.t**2) / math.sqrt(2.0 * np.pi)
    assert np.max(np.abs(series.values - expected)) < 1e-12
    q = np.arange(-g.n // 2, g.n // 2)
    assert np.max(np.abs(inverse_transform_at(spec, q) - expected)) < 1e-12


@pytest.mark.parametrize("g", [make_grid(32.0, 2**10), default_grid()],
                         ids=["small", "default"])
def test_round_trip_forward_inverse(g):
    rng = np.random.default_rng(0)
    spec = _random_half(g, rng)
    back = half_spectrum(g, forward_transform(inverse_transform(spec), g))
    assert np.max(np.abs(back.values - spec.values)) < 1e-13


@pytest.mark.parametrize("q", [np.arange(-128, 128), np.arange(-37, 52),
                               np.array([-128, -64, 0, 32, 96]),
                               np.array([-3, 0, 127, 128, 300])],
                         ids=["whole", "window", "strided", "wrapped"])
def test_inverse_transform_at_reads_the_full_transform(q):
    # f(q dt) is the sample q + n / 2 of the full transform, q read
    # modulo n; a strided q folds the spectrum first
    g = make_grid(16.0, 256)
    spec = _random_half(g, np.random.default_rng(1))
    got = inverse_transform_at(spec, q)
    assert got.dtype == float
    assert np.max(np.abs(got - transform_at(spec, q))) < 1e-13


def _one_fft(spec, q):
    """The s = 1 transform as one real FFT of n points: the oracle of
    every P = n case."""
    n = spec.grid.n
    sums = np.fft.irfft(spec.values, n, norm="forward")[q % n]
    return (spec.grid.dx / (2.0 * np.pi)) * sums


@st.composite
def _banded_spectra(draw):
    """(spectrum, kind): random hermitian samples on a prefix, the
    spectrum's band, that fits a block P <= n / 2 (short), needs the whole
    grid (long), reaches x_max (nyquist) or is empty (zero, all zero), on
    n = 2^6..2^12 points."""
    n = 2 ** draw(st.integers(6, 12))
    kind = draw(st.sampled_from(["short", "long", "nyquist", "zero"]))
    band = {"short": lambda: draw(st.integers(1, n // 4)),
            "long": lambda: draw(st.integers(n // 4 + 1, n // 2)),
            "nyquist": lambda: n // 2 + 1, "zero": lambda: 0}[kind]()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_half(make_grid(16.0, n), rng, band), kind


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_banded_spectra())
def test_band_transform_matches_the_full_transform(case):
    # every sample within a bound fixed beforehand, 4 log2(n) eps times
    # the sum's scale (dx / 2 pi) sum |F| over the full grid; a block of
    # P = n is one real FFT, bit for bit the oracle's
    spec, kind = case
    g = spec.grid
    q = np.arange(-g.n // 2, g.n // 2)
    got = inverse_transform_at(spec, q)
    want = transform_at(spec, q)
    scale = g.dx / np.pi * float(np.sum(np.abs(spec.values)))
    bound = 4.0 * math.log2(g.n) * np.finfo(float).eps * scale
    assert np.max(np.abs(got - want)) <= bound, kind
    if kind == "zero":
        assert not np.any(got)
    if kind in ("long", "nyquist"):
        assert got.tobytes() == _one_fft(spec, q).tobytes()


def test_band_transform_reads_the_block_of_the_support(monkeypatch):
    # a level spectrum's band of 1 366 points (1 024 of them nonzero) on
    # the 2^17-point wide grid fits the block of 4 096: 32 real FFTs of
    # 4 096 points; without its band the same spectrum takes one real FFT
    # of the whole grid
    blocks = []
    phases = grids._block_phases
    monkeypatch.setattr(grids, "_block_phases",
                        lambda n, block: blocks.append((n, block))
                        or phases(n, block))
    g = make_grid(128.0 * np.pi, 2**17)
    support = g.x <= 8.0 * np.pi / 3.0
    values = np.where(support & (g.x >= 2.0 * np.pi / 3.0), 1.0 + 0.5j, 0.0)
    band = int(np.flatnonzero(support)[-1]) + 1
    q = np.arange(-5, 6)
    banded = inverse_transform_at(SampledSpectrum(g, values, band), q)
    assert blocks == [(2**17, 4096)]
    whole = inverse_transform_at(SampledSpectrum(g, values), q)
    assert blocks == [(2**17, 4096)]
    assert np.max(np.abs(banded - whole)) < 1e-15


@pytest.mark.parametrize("q", [np.arange(-128, 128), np.arange(-37, 52),
                               np.array([-3, 0, 127, 128, 300])],
                         ids=["whole", "window", "wrapped"])
def test_full_band_transform_bit_equals_one_fft(q):
    # a spectrum nonzero at x = x_max needs the whole grid as its block
    g = make_grid(16.0, 256)
    spec = _random_half(g, np.random.default_rng(2))
    assert inverse_transform_at(spec, q).tobytes() == \
        _one_fft(spec, q).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_banded_spectra(), start=st.integers(-2**13, 2**13),
       length=st.integers(2, 2**12))
def test_window_bit_equals_inverse_transform_at(case, start, length):
    # consecutive q, read periodically, wrapped or not
    spec, _ = case
    length = min(length, spec.grid.n)
    got = inverse_transform_window(spec, start, start + length)
    want = inverse_transform_at(spec, np.arange(start, start + length))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plancherel_property(seed):
    # spectrum norm equals the time-domain l2 norm of the inverse transform
    g = make_grid(16.0, 256)
    spec = _random_half(g, np.random.default_rng(seed))
    series = inverse_transform(spec)
    time_norm = math.sqrt(float(np.sum(np.abs(series.values) ** 2)) * series.dt)
    assert math.isclose(l2_norm(spec), time_norm, rel_tol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermitian_spectrum_gives_real_samples(seed):
    # real time samples have a hermitian spectrum, whose half gives them
    # back from the package's real transform
    g = make_grid(16.0, 256)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n)  # real time samples
    full = forward_transform(TimeSeries(g.t0, g.dt, f), g)
    assert hermitian_defect(full) < 1e-9
    q = np.arange(-g.n // 2, g.n // 2)
    back = inverse_transform_at(half_spectrum(g, full), q)
    assert np.max(np.abs(back - f)) < 1e-12


def _generators(wavelet, h):
    """The generators of levels 0..2, both sides and roles, of the family
    of wavelet with h1 = h2 = h, as SampledSpectrum by key."""
    builder = FamilyBuilder(WaveletSpec(*wavelet), FilterPair(h, h))
    keys = [(j, side, role) for j in range(3) for side in SIDES
            for role in ROLES]
    return {key: SampledSpectrum(builder.grid, values,
                                 builder.band(key[0], key[2]))
            for key, (values, _) in builder.generators(keys).items()}


@pytest.mark.filterwarnings("ignore:filter pole at x=0 absorbed")
@pytest.mark.parametrize("wavelet", [("meyer",), ("daubechies", 4)],
                         ids=["meyer", "db4"])
@pytest.mark.parametrize("h", [OUFilter(), ExpGammaFilter(1.0)],
                         ids=["ou", "exp_gamma"])
def test_half_passes_match_full_grid_references(wavelet, h):
    # the full spectrum rebuilt by conjugate mirror (tests/transforms.py)
    # is the reference: each inner product within 1e-15 of ||f|| ||g||,
    # the transforms at the Gram lags of level 2 and on a window, and the
    # 2 pi period fold within 1e-15 of the reference's largest value
    gens = _generators(wavelet, h)
    lags = 16 * np.arange(-64, 65)
    for key, f in gens.items():
        norm = l2_norm(f)
        for g in gens.values():
            want = transforms.inner_product(f, g)
            assert abs(inner_product(f, g) - want.real) <= \
                1e-15 * norm * l2_norm(g), key
        for got, want in ((inverse_transform_at(f, lags),
                           transform_at(f, lags)),
                          (inverse_transform_window(f, -300, 301),
                           transform_at(f, np.arange(-300, 301)))):
            assert np.max(np.abs(got - want)) <= \
                1e-15 * np.max(np.abs(want)), key
    f = gens[0, "primal", "approximation"]
    folded = grids.fold_periods(f.grid, np.abs(f.values) ** 2, f.band)
    half = folded.sum(axis=0)
    want = transforms.period_fold(f)
    assert np.max(np.abs(half + np.roll(half[::-1], 1) - want)) <= \
        1e-15 * np.max(want)


def test_inner_product_convention():
    # <f, f> = (2 pi)^{-1} integral |F|^2
    g = make_grid(64.0, 2**12)
    spec = SampledSpectrum(g, np.exp(-0.5 * g.x**2))
    # integral of e^{-x^2} is sqrt(pi)
    assert math.isclose(inner_product(spec, spec).real,
                        math.sqrt(np.pi) / (2.0 * np.pi), rel_tol=1e-12)


def test_mismatched_grids_rejected():
    a = SampledSpectrum(make_grid(16.0, 64), np.ones(33))
    b = SampledSpectrum(make_grid(16.0, 128), np.ones(65))
    with pytest.raises(GridError):
        inner_product(a, b)


def test_spectrum_shape_validation():
    # a spectrum holds the half grid's n / 2 + 1 samples, not the full n
    for size in (32, 64, 65):
        with pytest.raises(GridError):
            SampledSpectrum(make_grid(16.0, 64), np.ones(size))


def test_npy_round_trip_special_values():
    # `build` writes spectra with np.save: np.load gives back every value
    # bit for bit, signed zeros, NaN, infinities and subnormals included
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-320,
                        1e300])
    values = np.empty(64, dtype=complex)
    values.real = np.tile(special, 8)
    values.imag = np.tile(special[::-1], 8)
    buffer = io.BytesIO()
    np.save(buffer, values, allow_pickle=False)
    buffer.seek(0)
    clone = np.load(buffer, allow_pickle=False)
    assert clone.dtype == values.dtype
    assert clone.tobytes() == values.tobytes()


def test_csv_output():
    # cli._csv_lines is the one CSV writer (counterexample.csv, paths.csv):
    # one newline-terminated line per row, read lazily from any iterable
    from vaguelab.cli import _csv_lines
    g = make_grid(16.0, 64)
    spec = SampledSpectrum(g, np.ones(33))
    rows = zip(spec.grid.x, spec.values.real, spec.values.imag)
    pieces = list(_csv_lines(["x", "re", "im"], rows))
    assert all(piece.count("\n") == 1 and piece.endswith("\n")
               for piece in pieces)
    lines = "".join(pieces).strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == 34
    x, re, im = (float(v) for v in lines[1].split(","))
    assert x == g.x[0] and re == 1.0 and im == 0.0


def test_default_grid_shape():
    g = default_grid()
    assert g.n == 2**16
    assert math.isclose(g.x_max, 64.0 * np.pi)
    assert math.isclose(g.dt, 1.0 / 64.0)
