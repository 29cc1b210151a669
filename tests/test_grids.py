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

from transforms import (TimeSeries, forward_transform, hermitian_defect,
                        inverse_transform)


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(-1.0, 64)
    with pytest.raises(GridError):
        make_grid(10.0, 48)  # not a power of two
    with pytest.raises(GridError):
        make_grid(10.0, 8)  # too small


def test_grid_contains_zero():
    g = make_grid(32.0, 128)
    assert g.x[g.n // 2] == 0.0
    assert len(g.x) == g.n
    assert math.isclose(g.dx, 0.5)
    assert math.isclose(g.dt, np.pi / 32.0)


@settings(max_examples=50, deadline=None)
@given(x_max=st.floats(1e-3, 1e6), log2_n=st.integers(4, 12))
@example(x_max=DEFAULT_X_MAX, log2_n=16)
def test_grid_is_mirror_exact_and_nested(x_max, log2_n):
    g = make_grid(x_max, 2**log2_n)
    x, half = g.x, g.n // 2
    assert x[half] == 0.0
    # x[n - m] == -x[m] for 1 <= m < n/2 (x[n/2] is its own mirror, and
    # x[0] = -x_max has none)
    assert x[:half:-1].tobytes() == (-x[1:half]).tobytes()
    assert x[0] == -g.x_max
    wide = make_grid(2.0 * g.x_max, 2 * g.n)
    assert wide.x[half:half + g.n].tobytes() == x.tobytes()
    for level in (1, 2, 5):
        assert make_grid(g.x_max / 2.0**level, g.n).x.tobytes() == \
            (x / 2.0**level).tobytes()


def test_gaussian_inverse_transform_closed_form():
    # oracle: the inverse transform of e^{-x^2/2} is (2 pi)^{-1/2} e^{-t^2/2}
    g = make_grid(64.0, 2**12)
    spec = SampledSpectrum(g, np.exp(-0.5 * g.x**2))
    series = inverse_transform(spec)
    expected = np.exp(-0.5 * series.t**2) / math.sqrt(2.0 * np.pi)
    assert np.max(np.abs(series.values - expected)) < 1e-12


@pytest.mark.parametrize("g", [make_grid(32.0, 2**10), default_grid()],
                         ids=["small", "default"])
def test_round_trip_forward_inverse(g):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    spec = SampledSpectrum(g, vals)
    back = forward_transform(inverse_transform(spec), g)
    assert np.max(np.abs(back.values - vals)) < 1e-13


@pytest.mark.parametrize("q", [np.arange(-128, 128), np.arange(-37, 52),
                               np.array([-128, -64, 0, 32, 96]),
                               np.array([-3, 0, 127, 128, 300])],
                         ids=["whole", "window", "strided", "wrapped"])
def test_inverse_transform_at_reads_the_full_transform(q):
    # f(q dt) is the sample q + n / 2 of the full transform, q read
    # modulo n; a strided q folds the spectrum first
    g = make_grid(16.0, 256)
    rng = np.random.default_rng(1)
    spec = SampledSpectrum(g, rng.standard_normal(g.n)
                           + 1j * rng.standard_normal(g.n))
    full = inverse_transform(spec).values
    want = full[(q + g.n // 2) % g.n]
    assert np.max(np.abs(inverse_transform_at(spec, q) - want)) < 1e-13


def _one_fft(spec, q):
    """The s = 1 transform as one FFT of n points, as inverse_transform_at
    computed it before the band path: the oracle of every P = n case."""
    n = spec.grid.n
    sums = np.fft.ifft(spec.values, norm="forward")[q % n]
    return np.where(q % 2, -1.0, 1.0) * (spec.grid.dx / (2.0 * np.pi)) * sums


@st.composite
def _banded_spectra(draw):
    """(spectrum, kind): random complex samples on an index span [lo, hi),
    the spectrum's band, that is centred on x = 0, straddles it off
    centre, lies off centre (touching the outer quarter, so the block
    holding it is the whole grid) or is empty (all zero), on n =
    2^6..2^12 points."""
    n = 2 ** draw(st.integers(6, 12))
    kind = draw(st.sampled_from(["centred", "straddling", "off-centre",
                                 "zero"]))
    if kind == "centred":
        w = draw(st.integers(1, n // 4))
        lo, hi = n // 2 - w, n // 2 + w
    elif kind == "straddling":
        lo = draw(st.integers(n // 4, n // 2))
        hi = draw(st.integers(n // 2 + 1, 3 * n // 4))
    elif kind == "off-centre":
        lo = draw(st.integers(0, n // 4 - 1))
        hi = draw(st.integers(lo + 1, n // 2))
    else:
        lo = hi = n // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(n, dtype=complex)
    values[lo:hi] = (rng.standard_normal(hi - lo)
                     + 1j * rng.standard_normal(hi - lo))
    return SampledSpectrum(make_grid(16.0, n), values, slice(lo, hi)), kind


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_banded_spectra())
def test_band_transform_matches_the_full_transform(case):
    # every sample within a bound fixed beforehand, 4 log2(n) eps times
    # the sum's scale (dx / 2 pi) sum |F|; a block of P = n is one FFT,
    # bit for bit the oracle's
    spec, kind = case
    g = spec.grid
    q = np.arange(-g.n // 2, g.n // 2)
    got = inverse_transform_at(spec, q)
    want = inverse_transform(spec).values[q + g.n // 2]
    scale = g.dx / (2.0 * np.pi) * float(np.sum(np.abs(spec.values)))
    bound = 4.0 * math.log2(g.n) * np.finfo(float).eps * scale
    assert np.max(np.abs(got - want)) <= bound, kind
    if kind == "zero":
        assert not np.any(got)
    if kind == "off-centre":
        assert got.tobytes() == _one_fft(spec, q).tobytes()


def test_band_transform_reads_the_block_of_the_support(monkeypatch):
    # a level spectrum's band of 2 731 points (2 048 of them nonzero) on
    # the 2^17-point wide grid sits in the centred block of 4 096: 32 FFTs
    # of 4 096 points; without its band the same spectrum takes one FFT of
    # the whole grid
    blocks = []
    phases = grids._block_phases
    monkeypatch.setattr(grids, "_block_phases",
                        lambda n, block: blocks.append((n, block))
                        or phases(n, block))
    g = make_grid(128.0 * np.pi, 2**17)
    support = np.abs(g.x) <= 8.0 * np.pi / 3.0
    values = np.where(support & (np.abs(g.x) >= 2.0 * np.pi / 3.0),
                      1.0 + 0.5j, 0.0)
    inside = np.flatnonzero(support)
    band = slice(inside[0], inside[-1] + 1)
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
    # a spectrum nonzero at x = -x_max needs the whole grid as its block
    g = make_grid(16.0, 256)
    rng = np.random.default_rng(2)
    spec = SampledSpectrum(g, rng.standard_normal(g.n)
                           + 1j * rng.standard_normal(g.n))
    assert inverse_transform_at(spec, q).tobytes() == \
        _one_fft(spec, q).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_banded_spectra(), start=st.integers(-2**13, 2**13),
       length=st.integers(2, 2**12))
def test_window_bit_equals_inverse_transform_at(case, start, length):
    # consecutive q, read as up to two slices of one period, wrapped or
    # not; the work rows start dirty
    spec, _ = case
    length = min(length, spec.grid.n)
    work = np.full((2, spec.grid.n), np.nan, dtype=complex)
    got = inverse_transform_window(spec, start, start + length, work)
    want = inverse_transform_at(spec, np.arange(start, start + length))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plancherel_property(seed):
    # spectrum norm equals the time-domain l2 norm of the inverse transform
    g = make_grid(16.0, 256)
    rng = np.random.default_rng(seed)
    spec = SampledSpectrum(g, rng.standard_normal(g.n)
                           + 1j * rng.standard_normal(g.n))
    series = inverse_transform(spec)
    time_norm = math.sqrt(float(np.sum(np.abs(series.values) ** 2)) * series.dt)
    assert math.isclose(l2_norm(spec), time_norm, rel_tol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermitian_spectrum_gives_real_samples(seed):
    g = make_grid(16.0, 256)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n)  # real time samples
    series = TimeSeries(g.t0, g.dt, f)
    spec = forward_transform(series, g)
    assert hermitian_defect(spec) < 1e-9


def test_inner_product_convention():
    # <f, f> = (2 pi)^{-1} integral |F|^2
    g = make_grid(64.0, 2**12)
    spec = SampledSpectrum(g, np.exp(-0.5 * g.x**2))
    # integral of e^{-x^2} is sqrt(pi)
    assert math.isclose(inner_product(spec, spec).real,
                        math.sqrt(np.pi) / (2.0 * np.pi), rel_tol=1e-12)


def test_mismatched_grids_rejected():
    a = SampledSpectrum(make_grid(16.0, 64), np.ones(64))
    b = SampledSpectrum(make_grid(16.0, 128), np.ones(128))
    with pytest.raises(GridError):
        inner_product(a, b)


def test_spectrum_shape_validation():
    with pytest.raises(GridError):
        SampledSpectrum(make_grid(16.0, 64), np.ones(65))


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
    spec = SampledSpectrum(g, np.ones(64))
    rows = zip(spec.grid.x, spec.values.real, spec.values.imag)
    pieces = list(_csv_lines(["x", "re", "im"], rows))
    assert all(piece.count("\n") == 1 and piece.endswith("\n")
               for piece in pieces)
    lines = "".join(pieces).strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == 65
    x, re, im = (float(v) for v in lines[1].split(","))
    assert x == g.x[0] and re == 1.0 and im == 0.0


def test_default_grid_shape():
    g = default_grid()
    assert g.n == 2**16
    assert math.isclose(g.x_max, 64.0 * np.pi)
    assert math.isclose(g.dt, 1.0 / 64.0)
