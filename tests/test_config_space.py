"""Every config either runs `vaguelab all` to the end or is refused up
front: a property test over wavelets, both filters of all seven kinds and
the simulate options that decide which spectra are formed, at the
scorecard's sizes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaguelab import cli

from scorecard_sizes import SIZES

WAVELETS = st.one_of(
    st.just({"kind": "meyer"}),
    st.builds(lambda n: {"kind": "daubechies", "n": n}, st.integers(2, 10)))
EXPONENTS = st.floats(-1.0, 1.0).map(lambda d: round(d, 3))
POSITIVE = st.floats(0.1, 10.0).map(lambda c: round(c, 3))
# rationals without a real pole or zero: c / (1 + b x^2) and c / (1 + i b x)
RATIONALS = st.builds(
    lambda c, b, real: {"kind": "rational", "numer": [c],
                        "denom": [1.0, 0.0, b] if real
                        else [[1.0, 0.0], [0.0, b]]},
    POSITIVE, POSITIVE, st.booleans())
FILTERS = st.one_of(
    st.sampled_from([{"kind": kind} for kind in ("unit", "ou",
                                                 "ou_complex")]),
    st.builds(lambda kind, d: {"kind": kind, "d": d},
              st.sampled_from(["fractional", "mst_approx"]), EXPONENTS),
    st.builds(lambda g: {"kind": "exp_gamma", "gamma": g},
              st.floats(0.25, 3.0).map(lambda g: round(g, 3))),
    RATIONALS)
CONFIGS = st.fixed_dictionaries({
    "wavelet": WAVELETS,
    "filters": st.fixed_dictionaries({"h1": FILTERS, "h2": FILTERS}),
    "simulate": st.fixed_dictionaries({
        "synthesis_side": st.sampled_from(["primal", "dual"]),
        "include_approximation": st.booleans()}),
})


@pytest.mark.filterwarnings("ignore:filter pole at x=0 absorbed")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=CONFIGS)
# the paper's e^{-|x|^gamma} as h2 on db4, stored with a log scale; a pole
# of h2 at x = 0 that only the refinement identity meets
@example(config={"wavelet": {"kind": "daubechies", "n": 4},
                 "filters": {"h1": {"kind": "ou"},
                             "h2": {"kind": "exp_gamma", "gamma": 1.5}},
                 "simulate": {"synthesis_side": "primal",
                              "include_approximation": True}})
@example(config={"wavelet": {"kind": "meyer"},
                 "filters": {"h1": {"kind": "ou"},
                             "h2": {"kind": "fractional", "d": -0.5}},
                 "simulate": {"synthesis_side": "primal",
                              "include_approximation": False}})
def test_every_config_runs_or_is_refused(config):
    document = {**SIZES, **config,
                "simulate": {**SIZES["simulate"], **config["simulate"]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(document))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["all", "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert (out / "summary.json").is_file()
