import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vaguelab import cli, family, mra
from vaguelab.cli import (ConfigError, _atomic_write, _csv_lines, _instantiate,
                          main, resolve_config)
from vaguelab.family import FamilyBuilder
from vaguelab.filters import FilterPair, OUFilter
from vaguelab.grids import default_grid, make_grid
from vaguelab.mra import WaveletSpec
from vaguelab.procsim import simulate
from vaguelab.report import RULES

from phi_product import direct_factor_count


def run_cli(args):
    return main(list(args))


def test_resolve_config_defaults():
    cfg = resolve_config({})
    assert cfg["wavelet"] == {"kind": "meyer"}
    assert cfg["build"]["J"] == 3
    assert cfg["counterexample"]["gamma"] == 1.0


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        resolve_config({"wavlet": {"kind": "meyer"}})
    with pytest.raises(ConfigError):
        resolve_config({"build": {"J": 3, "bogus": 1}})


def test_counterexample_flags(tmp_path, capsys):
    code = run_cli(["counterexample", "--out", str(tmp_path),
                    "--gamma", "1.0", "--jmin", "6", "--jmax", "12",
                    "--alpha1", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads((tmp_path / "counterexample_report.json").read_text())
    assert report["verdict"]["violation"] is True
    assert abs(report["verdict"]["slope"] + 0.5) < 0.05
    csv_lines = (tmp_path / "counterexample.csv").read_text().splitlines()
    assert csv_lines[0] == "j,scaled_norm,scaled_peak,ratio"
    assert len(csv_lines) == 1 + 7  # header + levels 6..12


def test_malformed_json_exits_2_no_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{ not json")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_cli(["counterexample", "--config", str(cfg_path),
                    "--out", str(out_dir)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_unknown_key_exits_2_no_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"counterexample": {"gama": 1.0}}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_cli(["counterexample", "--config", str(cfg_path),
                    "--out", str(out_dir)])
    assert code == 2
    assert list(out_dir.iterdir()) == []


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"counterexample": {"gamma": -1.0}}))
    code = run_cli(["counterexample", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("document", [
    {"filters": {"h2": {"kind": "mst_approx", "d": 0.7}}},
    {"wavelet": {"kind": "daubechies", "n": 4},
     "filters": {"h1": {"kind": "mst_approx", "d": 0.7}}},
    {"filters": {"h1": {"kind": "mst_approx", "d": 0.7}}},
], ids=["h2", "daubechies_h1", "meyer_h1_refinement"])
def test_mst_approx_on_support_exits_2_no_outputs(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_cli(["verify-riesz", "--config", str(cfg_path),
                    "--out", str(out_dir)])
    assert code == 2
    assert "mst_approx" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []
    # the Meyer scaling function stops short of the first pole
    resolve_config({"filters": {"h1": {"kind": "mst_approx", "d": 0.7}},
                    "riesz": {"refinement_levels": 0}})


@pytest.mark.parametrize("document", [
    {"vaguelet": {"alpha1": 2.0}},
    {"vaguelet": {"sides": ["left"]}},
    # no side would pass vacuously; a repeated one would report each
    # check twice
    {"vaguelet": {"sides": []}},
    {"vaguelet": {"sides": ["primal", "primal"]}},
    {"vaguelet": {"synthesis_K": 0}},
    {"riesz": {"J": -1}},
    {"riesz": {"refinement_levels": "x"}},
    {"build": {"K": 0}},
    {"counterexample": {"gamma": -1}},
    {"counterexample": {"alpha1": 2.0}},
    {"simulate": {"J_detail": -1}},
    {"simulate": {"resolution": -2000}},
    {"filters": {"h1": {"kind": "fractional", "d": 0.7}}},
    {"filters": {"h1": {"kind": "fractional", "d": -0.7}}},
    # simulate's approximation block puts h2 (primal) or 1/h2 (dual) on
    # phi^, which is 1 at x = 0
    {"filters": {"h2": {"kind": "fractional", "d": -0.5}}},
    {"filters": {"h2": {"kind": "fractional", "d": 0.7}},
     "simulate": {"synthesis_side": "dual"}},
    # 1 / (1 + x) is real and not even: not hermitian, so its family is
    # not real in time
    {"filters": {"h2": {"kind": "rational", "numer": [1.0],
                        "denom": [1.0, 1.0]}}},
    {"counterexample": {"j_min": 6, "j_max": 8}},
    # levels and lags past the default grid (dt = 1/64, window +-512)
    {"riesz": {"J": 7}},
    {"wavelet": {"kind": "daubechies", "n": 4}, "riesz": {"J": 7}},
    {"vaguelet": {"synthesis_J": 7}},
    {"wavelet": {"kind": "daubechies", "n": 4},
     "vaguelet": {"synthesis_J": 7}},
    {"riesz": {"K": 256}},
    {"riesz": {"K": 300}},
    {"vaguelet": {"synthesis_K": 128}},
    {"build": {"J": 7}},
    {"wavelet": {"kind": "daubechies", "n": 4}, "build": {"J": 7}},
    # Meyer levels the grid cuts: 2^5 8 pi / 3 > 64 pi (riesz J 5 would
    # FAIL biorthogonality_defect at 0.061 from the cut alone)
    {"build": {"J": 5}},
    {"riesz": {"J": 5, "K": 8, "refinement_levels": 0}},
    {"vaguelet": {"synthesis_J": 5}},
    # refinement_identity(5) reads the level-5 wavelet
    {"riesz": {"refinement_levels": 6}},
], ids=["vaguelet.alpha1", "vaguelet.sides", "vaguelet.sides-empty",
        "vaguelet.sides-repeated", "vaguelet.synthesis_K",
        "riesz.J", "riesz.refinement_levels", "build.K",
        "counterexample.gamma", "counterexample.alpha1", "simulate.J_detail",
        "simulate.resolution", "h1.fractional+", "h1.fractional-",
        "simulate.h2-pole", "simulate.h2-zero-dual", "h2.not-hermitian",
        "counterexample.window", "riesz.J7", "riesz.J7-db4",
        "vaguelet.synthesis_J7", "vaguelet.synthesis_J7-db4", "riesz.K256",
        "riesz.K300", "vaguelet.synthesis_K128", "build.J7", "build.J7-db4",
        "build.J5-meyer", "riesz.J5-meyer", "vaguelet.synthesis_J5-meyer",
        "riesz.refinement_levels6-meyer"])
def test_all_refuses_any_bad_block_before_writing(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_cli(["all", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command, document", [
    ("verify-riesz", {"riesz": {"K": 1.5}}),
    ("verify-riesz", {"riesz": {"J": 1.5}}),
    ("verify-riesz", {"riesz": {"K": True}}),
    ("build", {"build": {"K": 1.5}}),
    ("build", {"build": {"J": True}}),
    ("verify-vaguelet", {"vaguelet": {"synthesis_K": 1.5}}),
    ("verify-vaguelet", {"vaguelet": {"j_max": 2.5}}),
    ("verify-vaguelet", {"vaguelet": {"j_min": True}}),
    ("simulate", {"simulate": {"n_paths": 1.5}}),
    ("simulate", {"simulate": {"n_paths": True}}),
    ("simulate", {"simulate": {"J_detail": 1.5}}),
    ("simulate", {"simulate": {"K": 2.5}}),
    ("simulate", {"simulate": {"j_coarse": -1.0,
                               "include_approximation": False}}),
    ("simulate", {"simulate": {"resolution": 10.0}}),
    ("simulate", {"seed": 1.5}),
    ("simulate", {"seed": -1}),
    ("verify-riesz", {"wavelet": {"kind": "daubechies", "n": 4,
                                  "depth": 1.5}}),
    ("verify-riesz", {"wavelet": {"kind": "daubechies", "n": 4,
                                  "depth": 10}}),
    ("verify-riesz", {"wavelet": {"kind": "daubechies", "n": 4.5}}),
    ("counterexample", {"counterexample": {"j_min": 2.7, "j_max": 9.9}}),
    ("counterexample", {"counterexample": {"j_min": True, "j_max": 12}}),
], ids=["riesz.K", "riesz.J", "riesz.K-bool", "build.K", "build.J-bool",
        "vaguelet.synthesis_K", "vaguelet.j_max", "vaguelet.j_min-bool",
        "simulate.n_paths", "simulate.n_paths-bool",
        "simulate.J_detail", "simulate.K", "simulate.j_coarse",
        "simulate.resolution", "seed", "seed-negative", "wavelet.depth",
        "wavelet.depth-shallow", "wavelet.n", "counterexample.window",
        "counterexample.j_min-bool"])
def test_non_integer_counts_exit_2_no_outputs(tmp_path, capsys, command,
                                              document):
    # these used to end in a traceback at run time (a TypeError, an
    # IndexError, or a product depth cast from 1.5 to 1), or to run on
    # values cast by int(): the window 2.7..9.9 ran as 2..9 and exited 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    for cmd in (command, "all"):
        out_dir = tmp_path / cmd
        out_dir.mkdir()
        code = run_cli([cmd, "--config", str(cfg_path), "--out",
                        str(out_dir)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []


NON_FINITE = {
    "vaguelet.t_window": lambda v: {"vaguelet": {"t_window": v}},
    "counterexample.gamma": lambda v: {"counterexample": {"gamma": v}},
    "fractional.d": lambda v: {"filters": {"h2": {"kind": "fractional",
                                                  "d": v}}},
    "exp_gamma.gamma": lambda v: {"filters": {"h2": {"kind": "exp_gamma",
                                                     "gamma": v}}},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", sorted(NON_FINITE))
def test_non_finite_numbers_exit_2_no_outputs(tmp_path, capsys, key, value):
    # Python's json reads NaN and +-Infinity; these used to end in a
    # traceback (t_window, gamma, fractional d = Infinity in simulate), in
    # NaN spectra written with exit code 0 (fractional d = NaN), or in a
    # run that exited 0 (exp_gamma gamma = Infinity, t_window = Infinity)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(NON_FINITE[key](value)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run_cli(["all", "--config", str(cfg_path), "--out",
                    str(out_dir)]) == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_deepest_level_and_widest_sections_accepted():
    # the last values on the default grid: 2^-6 = dt, 2K = 510 and
    # 4K = 508 lags inside the window |t| < 512 (db4: no support limit)
    resolve_config({"wavelet": {"kind": "daubechies", "n": 4},
                    "build": {"J": 6}, "riesz": {"J": 6, "K": 255},
                    "vaguelet": {"synthesis_J": 6, "synthesis_K": 127}})
    # Meyer: 2^4 8 pi / 3 <= 64 pi, the deepest level the grid holds
    resolve_config({"build": {"J": 4},
                    "riesz": {"J": 4, "refinement_levels": 5},
                    "vaguelet": {"synthesis_J": 4}})


@pytest.mark.parametrize("flags", [["--gamma", "-1"], ["--alpha1", "2"],
                                   ["--jmin", "6", "--jmax", "8"],
                                   ["--gamma", "nan"]],
                         ids=["gamma", "alpha1", "window", "gamma-nan"])
def test_counterexample_bad_flag_exits_2_no_outputs(tmp_path, capsys, flags):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run_cli(["counterexample", "--out", str(out_dir), *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_build_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"build": {"J": 1, "K": 2}}))
    code = run_cli(["build", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")])
    assert code == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["wavelet"] == {"kind": "meyer"}
    assert manifest["grid"]["n"] == 2**16
    # approx level 0 + wavelet levels 0..1, shifts -2..2, two sides
    assert len(manifest["indices"]) == 2 * 3 * 5
    assert all({"j", "k", "side", "role", "norm", "log_norm"} == set(r)
               for r in manifest["indices"])
    # one .npy spectrum per generator (j, side, role), no CSV spectra
    generators = {(r["j"], r["side"], r["role"]) for r in manifest["indices"]}
    assert len(generators) == 2 * 3
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", "build_report.json"]
        + [f"member_{side}_{role}_j{j}.npy" for j, side, role in generators])
    values = np.load(out / "member_primal_wavelet_j0.npy", allow_pickle=False)
    grid = make_grid(manifest["grid"]["x_max"], manifest["grid"]["n"])
    builder = FamilyBuilder(WaveletSpec("meyer"),
                            FilterPair(OUFilter(), OUFilter()), grid)
    assert values.tobytes() == builder.generator(0, "primal",
                                                 "wavelet")[0].tobytes()
    # norms are k-independent: one log_norm per generator
    log_norms = {}
    for r in manifest["indices"]:
        log_norms.setdefault((r["j"], r["side"], r["role"]),
                             set()).add(r["log_norm"])
    assert all(len(v) == 1 for v in log_norms.values())
    report = json.loads((out / "build_report.json").read_text())
    assert report["pass"] is True
    assert report["schema"] == "1"
    # the manifest is written once, to manifest.json
    assert "manifest" not in report


def _build_twice_byte_identical(tmp_path, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli(["build", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].glob("member_*.npy"))
    assert len(names) == 6
    assert all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in names)


def test_build_reruns_byte_identical(tmp_path):
    _build_twice_byte_identical(tmp_path, {"build": {"J": 1, "K": 2}})


def test_daubechies_build_reruns_byte_identical(tmp_path):
    # the Daubechies product fill is as deterministic as Meyer's closed form
    _build_twice_byte_identical(tmp_path, {
        "wavelet": {"kind": "daubechies", "n": 4}, "build": {"J": 1, "K": 2}})


def test_readme_member_reader(tmp_path, monkeypatch):
    # the README's reader, run against a fresh `build` in out/
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", readme,
                                      re.DOTALL) if "np.load" in b]
    monkeypatch.chdir(tmp_path)
    assert run_cli(["build", "--out", "out"]) == 0
    namespace = {}
    exec(block, namespace)
    builder = FamilyBuilder(WaveletSpec("meyer"),
                            FilterPair(OUFilter(), OUFilter()))
    spectrum = namespace["spectrum"]
    assert spectrum.grid == builder.grid
    # the half layout: x = m dx for m = 0..n/2
    assert len(namespace["values"]) == builder.grid.n // 2 + 1
    assert json.loads(Path("out/manifest.json").read_text())["layout"] == \
        "x = m dx, m = 0..n/2; F(-x) = conj F(x)"
    assert spectrum.values.tobytes() == builder.generator(
        0, "primal", "wavelet")[0].tobytes()


def test_simulate_paths_csv(tmp_path):
    code = run_cli(["simulate", "--out", str(tmp_path), "--paths", "2",
                    "--levels", "2", "--shifts", "4", "--seed", "7"])
    assert code == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    # plain floats, not NumPy 2's np.float64(...) repr
    assert lines[0].startswith("t=-2.0,t=-1.75,")
    assert len(lines) == 3  # header + 2 paths
    manifest = json.loads((tmp_path / "paths_manifest.json").read_text())
    assert manifest["n_paths"] == 2
    assert manifest["seed"] == 7


def test_simulate_paths_csv_is_the_joined_text(tmp_path):
    # the streamed paths.csv holds the bytes of the text once built as
    # one joined string of the rows, the formula kept here as the oracle
    out = tmp_path / "out"
    assert run_cli(["simulate", "--out", str(out), "--paths", "3",
                    "--levels", "2", "--shifts", "4", "--seed", "7"]) == 0
    cfg = resolve_config({"seed": 7, "simulate": {"n_paths": 3,
                                                  "J_detail": 2, "K": 4}})
    ensemble = simulate(_instantiate(cfg)["simulate"])
    header = [f"t={float(t)!r}" for t in ensemble.times]
    rows = [tuple(float(v) for v in row) for row in ensemble.values]
    lines = [",".join(header)] + [",".join(repr(v) for v in row)
                                  for row in rows]
    assert (out / "paths.csv").read_text() == "\n".join(lines) + "\n"


def test_failing_row_iterator_leaves_no_file(tmp_path):
    # the writer streams into a temp file: a row that raises midway leaves
    # neither the target nor the temp file behind
    def rows():
        yield (1.0, 2.0)
        raise RuntimeError("row 2")

    with pytest.raises(RuntimeError, match="row 2"):
        _atomic_write(tmp_path / "paths.csv", _csv_lines(["a", "b"], rows()))
    assert list(tmp_path.iterdir()) == []


def test_outputs_get_the_umask_mode(tmp_path):
    # written as open() would write them: 0666 less the umask, not the
    # 0600 of the temp file they are written to first
    old = os.umask(0o022)
    try:
        assert run_cli(["counterexample", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode)
             for p in tmp_path.iterdir()}
    assert modes == {"counterexample_report.json": 0o644,
                     "counterexample.csv": 0o644}


def test_simulate_non_finite_variance_is_inconclusive(tmp_path, capsys):
    # finite paths up to ~1e225 whose squares overflow: the variance
    # statistic is inf, and the run must not PASS
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "filters": {"h2": {"kind": "exp_gamma", "gamma": 1.0}},
        "simulate": {"synthesis_side": "dual", "J_detail": 6, "K": 8,
                     "n_paths": 2, "include_approximation": False}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["simulate", "--config", str(cfg_path), "--out",
                        str(tmp_path)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    assert "INCONCLUSIVE simulate" in capsys.readouterr().out
    (check,) = json.loads(
        (tmp_path / "simulate_report.json").read_text())["checks"]
    assert check["pass"] is None
    assert check["statistics"]["empirical_var_near_zero"] == "inf"


def test_simulate_overflowing_level_is_inconclusive(tmp_path, capsys):
    # level 7's dual filter scale e^1072 is beyond the float range: the
    # run reports the level and its log scale instead of a traceback, and
    # writes no paths
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "filters": {"h2": {"kind": "exp_gamma", "gamma": 1.0}},
        "simulate": {"synthesis_side": "dual", "J_detail": 7, "K": 8,
                     "n_paths": 2, "include_approximation": False}}))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(cfg_path), "--out",
                    str(out)]) == 1
    captured = capsys.readouterr()
    assert "INCONCLUSIVE simulate" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert sorted(p.name for p in out.iterdir()) == ["simulate_report.json"]
    (check,) = json.loads((out / "simulate_report.json").read_text())["checks"]
    assert check["pass"] is None
    assert check["statistics"]["overflow_level"] == 7
    assert check["statistics"]["log_scale"] > math.log(np.finfo(float).max)


def test_simulate_empty_time_selection_exits_2_no_outputs(tmp_path, capsys):
    # no multiple of 0.25 lies in [0.1, 0.2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"simulate": {
        "t_min": 0.1, "t_max": 0.2, "time_step": 0.25}}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_cli(["simulate", "--config", str(cfg_path),
                    "--out", str(out_dir)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_simulate_inline_filter_spec(tmp_path):
    code = run_cli(["simulate", "--out", str(tmp_path), "--paths", "1",
                    "--levels", "1", "--shifts", "2",
                    "--filter", '{"kind": "fractional", "d": 0.7}'])
    assert code == 0
    manifest = json.loads((tmp_path / "paths_manifest.json").read_text())
    assert manifest["filters"]["h2"]["kind"] == "fractional"


def test_simulate_bad_inline_spec_exits_2(tmp_path, capsys):
    code = run_cli(["simulate", "--out", str(tmp_path),
                    "--filter", '{"kind": '])
    assert code == 2
    code = run_cli(["simulate", "--out", str(tmp_path),
                    "--filter", "nosuchfilter"])
    assert code == 2


def test_reports_byte_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["counterexample", "--out", str(out)]) == 0
    rep1 = json.loads((out1 / "counterexample_report.json").read_text())
    rep2 = json.loads((out2 / "counterexample_report.json").read_text())
    # identical checks and hash modulo the differing output path
    for rep, out in ((rep1, out1), (rep2, out2)):
        assert rep["config"]["output_dir"] == str(out)
        rep["config"]["output_dir"] = "X"
        rep.pop("config_hash")
    assert rep1 == rep2
    # same destination twice: byte-identical file
    assert run_cli(["counterexample", "--out", str(out1)]) == 0
    text1 = (out1 / "counterexample_report.json").read_bytes()
    assert run_cli(["counterexample", "--out", str(out1)]) == 0
    assert (out1 / "counterexample_report.json").read_bytes() == text1


def test_failing_check_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "filters": {"h1": {"kind": "exp_gamma", "gamma": 1.0},
                    "h2": {"kind": "exp_gamma", "gamma": 1.0}},
        "vaguelet": {"j_min": 0, "j_max": 5, "sides": ["primal"],
                     "synthesis_J": 2, "synthesis_K": 4},
    }))
    code = run_cli(["verify-vaguelet", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads(
        (tmp_path / "out" / "vaguelet_report.json").read_text())
    assert report["pass"] is False


def test_daubechies_verify_commands(tmp_path, capsys):
    # db4 at reduced sizes through both verify commands
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "wavelet": {"kind": "daubechies", "n": 4},
        "riesz": {"J": 1, "K": 8, "refinement_levels": 1},
        "vaguelet": {"j_min": 0, "j_max": 0, "sides": ["primal"],
                     "synthesis_J": 0, "synthesis_K": 1},
    }))
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert run_cli(["verify-riesz", *args]) == 1
    assert run_cli(["verify-vaguelet", *args]) == 0
    riesz = json.loads((out / "riesz_report.json").read_text())
    vaguelet = json.loads((out / "vaguelet_report.json").read_text())
    assert riesz["schema"] == vaguelet["schema"] == "1"
    checks = {c["check"]: c for c in riesz["checks"]}
    for name in ("riesz_bounds_primal", "riesz_bounds_dual", "bracket_sum",
                 "refinement_identity_j0"):
        assert checks[name]["pass"] is True, name
    # the defect is the grid's Fourier-tail truncation at 64 pi
    biorth = checks["biorthogonality_defect"]
    assert biorth["pass"] is False
    assert abs(biorth["statistics"]["max_defect"] / 5.8187e-6 - 1.0) < 1e-3
    assert vaguelet["pass"] is True
    assert "FAIL" in capsys.readouterr().out


def test_riesz_bounds_off_eigenpair_is_inconclusive(tmp_path, capsys,
                                                   monkeypatch):
    # the bounds are reported with their eigenpair residual; one above
    # its trust limit in report.RULES confirms no bound, and the run still
    # writes its report
    rule = RULES["riesz_bounds"]
    assert rule[0][:2] == ("eigen_residual", "<=")
    limit = rule[0][2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"riesz": {"J": 1, "K": 2, "refinement_levels": 1}}))
    args = ["verify-riesz", "--config", str(cfg_path), "--out",
            str(tmp_path / "out")]
    assert run_cli(args) == 0
    report = json.loads((tmp_path / "out" / "riesz_report.json").read_text())
    checks = {c["check"]: c for c in report["checks"]}
    residuals = {}
    for side in ("primal", "dual"):
        check = checks[f"riesz_bounds_{side}"]
        assert check["pass"] is True
        assert "hermitian_defect" not in check["statistics"]
        residuals[side] = check["statistics"]["eigen_residual"]
        assert 0.0 < residuals[side] < limit
    monkeypatch.setitem(RULES, "riesz_bounds", (
        ("eigen_residual", "<=", min(residuals.values()) / 2),) + rule[1:])
    capsys.readouterr()
    assert run_cli(args) == 1
    assert "INCONCLUSIVE riesz_bounds_primal" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "riesz_report.json").read_text())
    checks = {c["check"]: c for c in report["checks"]}
    for side in ("primal", "dual"):
        check = checks[f"riesz_bounds_{side}"]
        assert check["pass"] is None
        assert check["statistics"]["eigen_residual"] == residuals[side]


def test_verify_riesz_fills_each_product_factor_once(tmp_path, monkeypatch):
    # gram forms psi^ on the level-0 y-grid G_0 from phi^ on G_1, which is
    # also the level-1 approximation mother that refinement_identity_j0
    # reads: one fill of phi^ on G_0, G_1, G_2 evaluates each factor
    # u^(x / 2^m) / sqrt 2 of m = 1..42 that a point takes directly once
    # (twice when filled twice), at the points of the half grid x >= 0
    factors = []
    trig_poly = mra._trig_poly

    def counted(coeffs, x, *first):
        # product factors carry the filter divided by sqrt 2 (sum 1)
        if math.isclose(sum(coeffs), 1.0):
            factors.append(np.size(x))
        return trig_poly(coeffs, x, *first)

    monkeypatch.setattr(mra, "_trig_poly", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "wavelet": {"kind": "daubechies", "n": 4},
        "riesz": {"J": 1, "K": 8, "refinement_levels": 1}}))
    assert run_cli(["verify-riesz", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")]) == 1
    assert sum(factors) == direct_factor_count(default_grid().x, 42)


def test_verify_riesz_evaluates_each_generator_once(tmp_path, monkeypatch):
    # the Gram of each side and the biorthogonality block come from one
    # pass over the 2 (J + 2) = 6 section generators; bracket_sum reads
    # (0, primal, approximation) from them, and refinement_identity_j0 that
    # and (0, primal, wavelet), forming only (1, primal, approximation)
    spectra = []
    spectrum = family._spectrum

    def counted(*args):
        spectra.append(args[4:7])  # j, side, role
        return spectrum(*args)

    monkeypatch.setattr(family, "_spectrum", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "wavelet": {"kind": "daubechies", "n": 4},
        "riesz": {"J": 1, "K": 8, "refinement_levels": 1}}))
    assert run_cli(["verify-riesz", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")]) == 1
    assert len(spectra) == 7
    assert len(set(spectra)) == 7
    assert spectra[6] == (1, "primal", "approximation")


def test_readme_config_example_passes_verify_riesz(tmp_path, capsys):
    # the README's example is a pair the theory covers: every Riesz check
    # passes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(block)
    out = tmp_path / "out"
    assert run_cli(["verify-riesz", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
    report = json.loads((out / "riesz_report.json").read_text())
    assert report["pass"] is True
    assert all(c["pass"] is True for c in report["checks"])
    assert "FAIL" not in capsys.readouterr().out


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vaguelab.cli", "counterexample",
         "--out", str(tmp_path), "--gamma", "2.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_counterexample_with_underflowing_norms_is_inconclusive(tmp_path):
    # at gamma = 5 the default window 4..9 reaches levels whose boundary
    # layer is thinner than the float spacing at x = a: their scaled norms
    # are 0, the ratios NaN, and both checks INCONCLUSIVE, with the CSV
    # and the report still written
    proc = subprocess.run(
        [sys.executable, "-m", "vaguelab.cli", "counterexample",
         "--out", str(tmp_path), "--gamma", "5"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(
            Path(__file__).resolve().parent.parent / "src")})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.split() == ["INCONCLUSIVE", "ratio_exponent",
                                   "INCONCLUSIVE", "vaguelet_violation"]
    report = json.loads((tmp_path / "counterexample_report.json").read_text())
    assert [c["pass"] for c in report["checks"]] == [None, None]
    assert report["verdict"]["violation"] is None
    rows = (tmp_path / "counterexample.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert rows[-1].split(",")[1:] == ["0.0", "0.0", "nan"]


def test_all_validates_the_config_once(tmp_path, monkeypatch):
    # the flags are applied to the document and the result validated once;
    # every subcommand of `all` reads those validated blocks, and a flag
    # that makes the config bad is still refused before anything is written
    calls = []
    instantiate = cli._instantiate

    def counted(cfg):
        calls.append(1)
        return instantiate(cfg)

    monkeypatch.setattr(cli, "_instantiate", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "build": {"J": 1, "K": 2},
        "vaguelet": {"j_max": 2, "synthesis_J": 1, "synthesis_K": 2},
        "riesz": {"J": 1, "K": 2, "refinement_levels": 1},
        "counterexample": {"gamma": 2.0},
        "simulate": {"J_detail": 1, "K": 4, "n_paths": 2}}))
    assert main(["all", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    out = tmp_path / "refused"
    assert main(["counterexample", "--config", str(cfg_path), "--out",
                 str(out), "--alpha1", "1.5"]) == 2
    assert len(calls) == 2
    assert not out.exists()


def test_all_loads_no_scipy(tmp_path):
    # SciPy is a test dependency only: a whole `all` run must not import it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "build": {"J": 1, "K": 2},
        "vaguelet": {"j_max": 2, "synthesis_J": 1, "synthesis_K": 2},
        "riesz": {"J": 1, "K": 2, "refinement_levels": 1},
        "counterexample": {"gamma": 2.0},
        "simulate": {"J_detail": 1, "K": 4, "n_paths": 2}}))
    script = (
        "import json, sys\n"
        "from vaguelab import cli\n"
        f"code = cli.main(['all', '--config', {str(cfg_path)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps({'code': code, 'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "scipy": []}
