"""Batch front door: config parsing, subcommand dispatch, report emission.

Subcommands: build, verify-vaguelet, verify-riesz, counterexample,
simulate, all. One JSON document configures a run; unknown keys are
rejected. Reports embed the resolved config and are byte-reproducible for
identical config + seed. Exit codes: 0 all requested checks pass, 1 a
check failed or is inconclusive, 2 configuration error (in which case
nothing is written).
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .counterexample import (CounterexampleConfig, default_window,
                             ratio_exponent, run_counterexample,
                             vaguelet_violation)
from .family import SIDES, FamilyBuilder, FamilyIndex, FamilyMember
from .filters import FilterEvalError, FilterPair, filter_from_config
from .grids import SampledSpectrum, default_grid
from .mra import WaveletSpec, check_cmf
from .procsim import (SynthesisPlan, TermOverflowError, dyadic_times,
                      simulate)
from .report import CheckResult, dump_report, render_report, report_merge
from .riesz import (Truncation, bracket_sum, check_level,
                    refinement_identity, refinement_keys, riesz_bounds,
                    sections)
from .vaguelet import VagueletParams, synthesis_bound, vaguelet_suite


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


DEFAULT_CONFIG = {
    "wavelet": {"kind": "meyer"},
    "filters": {"h1": {"kind": "ou"}, "h2": {"kind": "ou"}},
    "output_dir": "vaguelab-out",
    "seed": 0,
    "build": {"J": 3, "K": 8},
    "vaguelet": {"alpha1": 0.9, "alpha2": 0.5, "j_min": 0, "j_max": 8,
                 "t_window": 32.0, "sides": ["primal", "dual"],
                 "synthesis_J": 4, "synthesis_K": 16},
    "riesz": {"J": 3, "K": 8, "refinement_levels": 4},
    "counterexample": {"gamma": 1.0, "j_min": None, "j_max": None,
                       "alpha1": 0.5},
    "simulate": {"J_detail": 6, "K": 64, "n_paths": 100,
                 "t_min": -2.0, "t_max": 2.0, "resolution": 10,
                 "time_step": 0.25, "synthesis_side": "primal",
                 "include_approximation": True, "j_coarse": 0},
}


def _merge_section(defaults: dict, overrides: dict, path: str) -> dict:
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return copy.deepcopy({**defaults, **overrides})


def resolve_config(document: dict) -> dict:
    """Defaults overlaid with the user document; unknown keys rejected.

    The wavelet and filter sub-objects are replaced wholesale (their own
    key validation lives with their constructors).
    """
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(document) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown top-level config keys {unknown}")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, val in document.items():
        if key in ("wavelet",):
            cfg[key] = copy.deepcopy(val)
        elif key == "filters":
            if not isinstance(val, dict) or set(val) - {"h1", "h2"}:
                raise ConfigError("filters must be an object with keys h1, h2")
            for side in ("h1", "h2"):
                if side in val:
                    cfg["filters"][side] = copy.deepcopy(val[side])
        elif isinstance(cfg[key], dict):
            cfg[key] = _merge_section(cfg[key], val, key)
        else:
            cfg[key] = copy.deepcopy(val)
    # construct early so bad specs are config errors, not runtime failures
    _instantiate(cfg)
    return cfg


def _synthesis_plan(cfg: dict, wavelet: WaveletSpec,
                    pair: FilterPair) -> SynthesisPlan:
    block = dict(cfg["simulate"])
    t_min, t_max, step = (block.pop(k) for k in ("t_min", "t_max",
                                                 "time_step"))
    times = dyadic_times(t_min, t_max, block["resolution"])
    if step is not None:
        times = times[np.abs(times / step - np.round(times / step)) < 1e-9]
    if len(times) == 0:
        raise ValueError(f"simulate: no time on the dyadic grid in "
                         f"[{t_min}, {t_max}] with time_step {step}")
    # the other keys of the block are the plan's fields
    return SynthesisPlan(pair, wavelet, times=times, seed=cfg["seed"],
                         **block)


def _refuse_non_finite(value, path: str) -> None:
    """Refuse NaN and +-Infinity anywhere in the config: Python's json reads
    them, and no parameter is meant to take one."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {value} is not a finite number")
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict)
                          else enumerate(value)):
            _refuse_non_finite(item, f"{path}.{key}" if path else str(key))


def _instantiate(cfg: dict) -> dict:
    """The validated object of every config block, by block name, so a bad
    value is refused before any command writes a file."""
    _refuse_non_finite(cfg, "")
    vb, rb, ce = cfg["vaguelet"], cfg["riesz"], cfg["counterexample"]
    try:
        wavelet = WaveletSpec.from_config(cfg["wavelet"])
        pair = FilterPair(filter_from_config(cfg["filters"]["h1"]),
                          filter_from_config(cfg["filters"]["h2"]))
        levels = range(rb["refinement_levels"])
        # mst_approx has poles at 2 pi k, k != 0: inside the support of
        # every psi^ and of the Daubechies phi^; the Meyer phi^ stops at
        # 4 pi / 3
        if pair.h2.kind == "mst_approx" or (pair.h1.kind == "mst_approx"
                                            and wavelet.kind != "meyer"):
            raise ValueError("mst_approx poles at nonzero multiples of 2 pi "
                             "lie in the base function's Fourier support; "
                             "use it only as h1 with the Meyer wavelet")
        # phi^(0) = 1, so no vanishing order absorbs a pole of h1 or 1/h1
        # at x = 0: the approximation spectra could not be formed
        for power in (1, -1):
            try:
                pair.h1.eval(np.array([0.0]), power=power)
            except FilterEvalError as exc:
                raise ValueError(f"h1: {exc}; phi^(0) = 1 cannot absorb a "
                                 "pole of h1 or 1/h1 at x = 0") from exc
        # the refinement identity at level j needs phi^(y) h1(2^{j+1} y),
        # whose support |y| <= 4 pi / 3 reaches the pole at x = 2 pi for
        # every j >= 0
        if pair.h1.kind == "mst_approx" and len(levels) >= 1:
            raise ValueError("h1 = mst_approx puts a pole at x = 2 pi inside "
                             "the level-(j+1) approximation spectrum that the "
                             "refinement identity needs; set "
                             "riesz.refinement_levels to 0")
        sides = tuple(vb["sides"])
        if not set(sides) <= set(SIDES):
            raise ValueError(f"vaguelet.sides: each side must be one of "
                             f"{SIDES}, got {list(sides)}")
        # every command builds on the default grid (Meyer: levels <= 4)
        grid = default_grid()
        radius = wavelet.phi_support_radius
        check_level(cfg["build"]["J"], grid, radius)
        riesz = Truncation(rb["J"], rb["K"])
        riesz.check_grid(grid, radius)
        # refinement_identity(j) reads the level-j wavelet, no shifts
        if levels:
            check_level(levels[-1], grid, radius, shifts=False)
        # synthesis_bound's sections (K and 2K): the 2K one holds both
        Truncation(vb["synthesis_J"], vb["synthesis_K"])
        Truncation(vb["synthesis_J"],
                   2 * vb["synthesis_K"]).check_grid(grid, radius)
        alpha1 = float(ce["alpha1"])
        if not 0.0 < alpha1 < 1.0:
            raise ValueError("counterexample.alpha1 must be in (0, 1), "
                             f"got {alpha1}")
        gamma = float(ce["gamma"])
        j_min, j_max = default_window(gamma)
        return {
            "wavelet": wavelet, "filters": pair,
            "build": Truncation(cfg["build"]["J"], cfg["build"]["K"]),
            "vaguelet": (VagueletParams(vb["alpha1"], vb["alpha2"],
                                        vb["j_min"], vb["j_max"],
                                        vb["t_window"]), sides),
            "riesz": (riesz, levels),
            "counterexample": (CounterexampleConfig(
                gamma, j_min if ce["j_min"] is None else ce["j_min"],
                j_max if ce["j_max"] is None else ce["j_max"]), alpha1),
            "simulate": _synthesis_plan(cfg, wavelet, pair)}
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: Path, data: str | bytes | Iterable[str]) -> None:
    """Write data (str, bytes or an iterable of str) to a temp file beside
    path and replace path with it only once every piece is written. The
    file gets the mode open() gives a new file, 0666 less the umask
    (mkstemp creates it 0600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.writelines([data] if isinstance(data, (str, bytes)) else data)
        # read the umask by setting the tightest one for the moment
        umask = os.umask(0o777)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_lines(header: list, rows: Iterable) -> Iterator[str]:
    """The CSV lines, newline-terminated, of a header and an iterable of
    rows: floats by repr, anything else by str."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                       for v in row) + "\n"


def _write_report(cfg: dict, checks: list, out_path: Path) -> dict:
    report = render_report(checks, cfg)
    _atomic_write(out_path, dump_report(report))
    return report


def _exit_code(report: dict) -> int:
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------- commands

def cmd_build(cfg: dict) -> dict:
    blocks = _instantiate(cfg)
    wavelet, pair, tr = blocks["wavelet"], blocks["filters"], blocks["build"]
    builder = FamilyBuilder(wavelet, pair)
    grid = builder.grid
    indices = []
    # k-translates differ by a phase only: one spectrum and one norm per
    # generator (j, side, role), recorded for every k of the truncation
    generators = builder.generators([(idx.j, side, idx.role) for side in SIDES
                                     for idx in tr.indices(side)])
    for (j, side, role), (vals, log_scale) in generators.items():
        member = FamilyMember(FamilyIndex(j, 0, side, role),
                              SampledSpectrum(grid, vals), log_scale)
        log_norm, norm = member.log_norm, member.norm
        indices.extend({"j": j, "k": k, "side": side, "role": role,
                        "log_norm": log_norm, "norm": norm}
                       for k in range(-tr.K, tr.K + 1))
    out_dir = Path(cfg["output_dir"])
    manifest = {
        "wavelet": wavelet.config(), "filters": pair.config(),
        "grid": {"x_max": grid.x_max, "n": grid.n},
        "indices": indices,
    }
    for (j, side, role), (vals, _) in generators.items():
        buffer = io.BytesIO()
        np.save(buffer, vals, allow_pickle=False)
        _atomic_write(out_dir / f"member_{side}_{role}_j{j}.npy",
                      buffer.getvalue())
    checks = [check_cmf(wavelet),
              CheckResult("build_manifest",
                          statistics={"n_members": len(indices)},
                          params={"J": tr.J, "K": tr.K})]
    report = _write_report(cfg, checks, out_dir / "build_report.json")
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return report


def cmd_verify_vaguelet(cfg: dict) -> dict:
    blocks = _instantiate(cfg)
    builder = FamilyBuilder(blocks["wavelet"], blocks["filters"])
    params, sides = blocks["vaguelet"]
    block = cfg["vaguelet"]
    checks = []
    for side in sides:
        side_checks = vaguelet_suite(builder, side, params)
        side_checks.append(synthesis_bound(builder, side,
                                           J=block["synthesis_J"],
                                           K=block["synthesis_K"]))
        for c in side_checks:
            c.name = f"{c.name}_{side}"
            checks.append(c)
    return _write_report(cfg, checks,
                         Path(cfg["output_dir"]) / "vaguelet_report.json")


def cmd_verify_riesz(cfg: dict) -> dict:
    blocks = _instantiate(cfg)
    builder = FamilyBuilder(blocks["wavelet"], blocks["filters"])
    tr, levels = blocks["riesz"]
    # one fill for every mother the checks read: the phi^ that forms psi^
    # on the level-0 y-grid is the level-1 approximation mother as well
    builder.fill([(i.j, i.side, i.role) for side in SIDES
                  for i in tr.indices(side)]
                 + [key for j in levels for key in refinement_keys(j)])
    # the generators formed for the sections, and each refinement level's
    # Phi_{j+1} (level j + 1's Phi_j), are handed on to the later checks
    # that read them, each dropped after its last reader
    formed: dict = {}
    reads = ([[(0, "primal", "approximation")]]
             + [refinement_keys(j) for j in levels])

    def release(checks_done):
        for key in set(formed).difference(*reads[checks_done:]):
            del formed[key]

    grams, biorthogonality = sections(builder, tr, formed)
    release(0)
    checks = []
    for side in SIDES:
        c1, c2, residual = riesz_bounds(grams[side])
        checks.append(CheckResult(
            "riesz_bounds",
            statistics={"C1": c1, "C2": c2, "eigen_residual": residual,
                        "dimension": grams[side].dimension},
            params={"J": tr.J, "K": tr.K}))
        checks[-1].name += f"_{side}"
    checks.append(biorthogonality)
    checks.append(bracket_sum(builder, formed))
    release(1)
    for done, j in enumerate(levels, start=2):
        c = refinement_identity(builder, j, formed)
        release(done)
        c.name = f"refinement_identity_j{j}"
        checks.append(c)
    return _write_report(cfg, checks,
                         Path(cfg["output_dir"]) / "riesz_report.json")


def cmd_counterexample(cfg: dict) -> dict:
    ce_cfg, alpha1 = _instantiate(cfg)["counterexample"]
    run = run_counterexample(ce_cfg)
    checks = [ratio_exponent(run), vaguelet_violation(run, alpha1)]
    rows = [(r["j"], r["scaled_norm"], r["scaled_peak"], r["ratio"])
            for r in run.records()]
    out_dir = Path(cfg["output_dir"])
    _atomic_write(out_dir / "counterexample.csv",
                  _csv_lines(["j", "scaled_norm", "scaled_peak", "ratio"],
                             rows))
    report = render_report(checks, cfg)
    report["verdict"] = {
        "violation": checks[1].passed,
        "slope": checks[0].statistics["slope"],
        "target": checks[0].statistics["target"],
    }
    _atomic_write(out_dir / "counterexample_report.json", dump_report(report))
    return report


def cmd_simulate(cfg: dict) -> dict:
    plan = _instantiate(cfg)["simulate"]
    out_dir = Path(cfg["output_dir"])
    report_path = out_dir / "simulate_report.json"
    try:
        ensemble = simulate(plan)
    except TermOverflowError as exc:
        # a level's terms are beyond the float range: no paths to write,
        # no path statistics, and the check reads INCONCLUSIVE
        return _write_report(cfg, [CheckResult(
            "simulate",
            statistics={"overflow_level": exc.level,
                        "log_scale": exc.log_scale},
            params=plan.config())], report_path)
    header = [f"t={float(t)!r}" for t in ensemble.times]
    # row by row from the values: no copy of the paths as text
    _atomic_write(out_dir / "paths.csv",
                  _csv_lines(header, map(np.ndarray.tolist, ensemble.values)))
    _atomic_write(out_dir / "paths_manifest.json",
                  json.dumps(plan.config(), sort_keys=True, indent=2) + "\n")
    with np.errstate(over="ignore", invalid="ignore"):
        var0 = float(np.var(
            ensemble.values[:, np.argmin(np.abs(ensemble.times))]))
    checks = [CheckResult(
        "simulate",
        statistics={"n_paths": ensemble.n_paths,
                    "n_times": len(ensemble.times),
                    "empirical_var_near_zero": var0,
                    "max_abs_path_value": float(np.max(np.abs(
                        ensemble.values)))},
        params=plan.config())]
    return _write_report(cfg, checks, report_path)


COMMANDS = {
    "build": cmd_build,
    "verify-vaguelet": cmd_verify_vaguelet,
    "verify-riesz": cmd_verify_riesz,
    "counterexample": cmd_counterexample,
    "simulate": cmd_simulate,
}


def cmd_all(cfg: dict) -> dict:
    order = ["build", "verify-vaguelet", "verify-riesz", "counterexample",
             "simulate"]
    reports = [COMMANDS[name](cfg) for name in order]
    summary = report_merge([{k: v for k, v in r.items()
                             if k in ("schema", "config_hash", "checks",
                                      "pass")} for r in reports])
    _atomic_write(Path(cfg["output_dir"]) / "summary.json",
                  dump_report(summary))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaguelab",
        description="Filter-transformed wavelet families: construction, "
                    "vaguelet/Riesz verification, counterexample asymptotics "
                    "and Gaussian process synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config)")

    for name in ("build", "verify-vaguelet", "verify-riesz", "all"):
        common(sub.add_parser(name))
    ce = sub.add_parser("counterexample")
    common(ce)
    ce.add_argument("--gamma", type=float, default=None)
    ce.add_argument("--jmin", type=int, default=None)
    ce.add_argument("--jmax", type=int, default=None)
    ce.add_argument("--alpha1", type=float, default=None)
    sim = sub.add_parser("simulate")
    common(sim)
    sim.add_argument("--filter", dest="filter_spec", type=str, default=None,
                     help='synthesis filter h2, e.g. "ou" or '
                          '\'{"kind":"fractional","d":0.7}\'')
    sim.add_argument("--wavelet", type=str, default=None,
                     help='e.g. "meyer" or \'{"kind":"daubechies","n":4}\'')
    sim.add_argument("--levels", type=int, default=None, help="top level J")
    sim.add_argument("--shifts", type=int, default=None,
                     help="shift half-width K")
    sim.add_argument("--paths", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    return parser


def _parse_inline_spec(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    return {"kind": text}


def _load_config(args) -> dict:
    document = {}
    if args.config is not None:
        try:
            document = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {args.config}: {exc}") \
                from exc
    cfg = resolve_config(document)
    if args.out is not None:
        cfg["output_dir"] = str(args.out)
    if args.command == "counterexample":
        for flag, key in (("gamma", "gamma"), ("jmin", "j_min"),
                          ("jmax", "j_max"), ("alpha1", "alpha1")):
            val = getattr(args, flag)
            if val is not None:
                cfg["counterexample"][key] = val
    if args.command == "simulate":
        try:
            if args.filter_spec is not None:
                cfg["filters"]["h2"] = _parse_inline_spec(args.filter_spec)
            if args.wavelet is not None:
                cfg["wavelet"] = _parse_inline_spec(args.wavelet)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed inline JSON spec: {exc}") from exc
        if args.levels is not None:
            cfg["simulate"]["J_detail"] = args.levels
        if args.shifts is not None:
            cfg["simulate"]["K"] = args.shifts
        if args.paths is not None:
            cfg["simulate"]["n_paths"] = args.paths
        if args.seed is not None:
            cfg["seed"] = args.seed
    _instantiate(cfg)  # revalidate after the flag overrides
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # every block was validated above: no command raises ConfigError
    report = cmd_all(cfg) if args.command == "all" else \
        COMMANDS[args.command](cfg)
    for check in report["checks"]:
        verdict = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[
            check["pass"]]
        print(f"{verdict:12s} {check['check']}")
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
