"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee and prints a single PASS/FAIL
line so a plain ``pytest -s tests/test_acceptance.py`` reads as a
scorecard.  Tolerances here are the contractual ones; the per-module
suites probe tighter, implementation-level properties.
"""

import json
import math

import numpy as np
import pytest

from vaguelab.cli import main as cli_main
from vaguelab.counterexample import (CounterexampleConfig, default_window,
                                     ratio_exponent, run_counterexample,
                                     vaguelet_violation)
from vaguelab.family import FamilyBuilder
from vaguelab.filters import (FilterPair, FractionalFilter, MSTApproxFilter,
                              OUFilter, unit_pair)
from vaguelab.mra import WaveletSpec, check_cmf
from vaguelab.procsim import (SynthesisPlan, covariance_kernel, dyadic_times,
                              empirical_covariance, fbm_scaling, simulate)
from vaguelab.riesz import (Truncation, biorthogonality_defect, bracket_sum,
                            gram, refinement_identity, riesz_bounds)
from vaguelab.vaguelet import VagueletParams, vaguelet_suite

from rescaled import norm_band


def _verdict(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


@pytest.fixture(scope="module")
def frac_pair():
    return FilterPair(FractionalFilter(0.7), FractionalFilter(0.7))


@pytest.fixture(scope="module")
def frac_builder(meyer, frac_pair):
    return FamilyBuilder(meyer, frac_pair)


@pytest.fixture(scope="module")
def ou_plan(meyer, ou_pair):
    times = dyadic_times(-2.0, 2.0, 10)
    times = times[np.abs(times / 0.25 - np.round(times / 0.25)) < 1e-9]
    return SynthesisPlan(ou_pair, meyer, times=times, J_detail=6, K=64,
                         synthesis_side="primal",
                         include_approximation=True, seed=42, n_paths=10000)


def test_acceptance_cmf(meyer, db4):
    a = check_cmf(meyer)
    b = check_cmf(db4)
    ok = (a.passed and a.statistics["max_defect"] < 1e-12
          and b.passed and b.statistics["max_defect"] < 1e-10)
    _verdict("conjugate mirror filter identity (meyer < 1e-12, db4 < 1e-10)",
             ok)


def test_acceptance_unit_filter_orthonormality(unit_builder):
    g = gram(unit_builder, "primal", Truncation(3, 8))
    identity_err = float(np.max(np.abs(g.matrix - np.eye(g.dimension))))
    c1, c2, _ = riesz_bounds(g)
    ok = (identity_err < 1e-8
          and abs(c1 - 1.0) < 1e-4 and abs(c2 - 1.0) < 1e-4)
    _verdict("unit filter gives the orthonormal system back "
             "(gram = identity to 1e-8, bounds = 1 to 1e-4)", ok)


def test_acceptance_norm_bands(ou_builder, frac_builder):
    a = norm_band(ou_builder, j_range=range(0, 9))
    b = norm_band(frac_builder, j_range=range(0, 9))
    bands = [a.statistics["band_primal"], a.statistics["band_dual"],
             b.statistics["band_primal"], b.statistics["band_dual"]]
    ok = a.passed and b.passed and max(bands) < 3.0
    _verdict("rescaled member norms stay in a factor-3 band over levels "
             "0..8 (ou and fractional d=0.7)", ok)


def test_acceptance_vaguelet_suites(ou_builder, frac_builder):
    params = VagueletParams()
    results = []
    for builder, side in ((ou_builder, "primal"), (ou_builder, "dual"),
                          (frac_builder, "dual")):
        results.extend(vaguelet_suite(builder, side, params))
    ok = all(r.passed for r in results)
    for r in results:
        if "band_ratio" in r.statistics:
            ok = ok and r.statistics["band_ratio"] < 10.0
        if "max_refinement_change" in r.statistics:
            ok = ok and r.statistics["max_refinement_change"] < 0.20
    _verdict("vaguelet property verified for ou (both sides) and "
             "fractional d=0.7 (dual)", ok)


def test_acceptance_counterexample_asymptotics():
    ok = True
    for gamma in (0.5, 1.0, 2.0):
        j_min, j_max = default_window(gamma)
        cfg = CounterexampleConfig(gamma, j_min, j_max)
        run = run_counterexample(cfg)
        slope = ratio_exponent(run).statistics["slope"]
        ok = ok and abs(slope - (-gamma / 2.0)) < 0.1 * (gamma / 2.0)
        ok = ok and all(np.isfinite(run.scaled_norms))
        ok = ok and all(np.isfinite(run.scaled_peaks))
    run1 = run_counterexample(CounterexampleConfig(1.0,
                                                   *default_window(1.0)))
    for alpha1 in (0.1, 0.5):
        ok = ok and vaguelet_violation(run1, alpha1).statistics["violation"]
    _verdict("peak/norm ratio decays like 2^(-j gamma/2) within 10% for "
             "gamma in {0.5, 1, 2} and violates the vaguelet bound", ok)


def test_acceptance_biorthogonality(meyer, ou_builder, mst_pair):
    tr = Truncation(3, 8)
    mst_builder = FamilyBuilder(meyer, mst_pair)
    good_a = biorthogonality_defect(mst_builder, tr)
    good_b = biorthogonality_defect(ou_builder, tr)
    bad = biorthogonality_defect(
        FamilyBuilder(meyer, FilterPair(OUFilter(), FractionalFilter(1.0))),
        tr)
    ok = (good_a.passed and good_a.statistics["max_defect"] < 1e-6
          and good_b.passed and good_b.statistics["max_defect"] < 1e-6
          and not bad.passed
          and bad.statistics["max_cross_block_defect"] > 0.1)
    _verdict("primal/dual biorthogonality < 1e-6 for exact pairs; "
             "non-periodic quotient pair detected", ok)


def test_acceptance_riesz_stability(ou_builder):
    c1a, c2a, _ = riesz_bounds(gram(ou_builder, "primal", Truncation(4, 16)))
    c1b, c2b, _ = riesz_bounds(gram(ou_builder, "primal", Truncation(4, 32)))
    ok = c1a > 0.1 and c1b >= 0.9 * c1a and c2b <= 1.1 * c2a
    for j in range(0, 4):
        r = refinement_identity(ou_builder, j)
        ok = (ok and r.passed
              and r.statistics["residual_phi"] < 1e-9
              and r.statistics["residual_eta"] < 1e-9)
    _verdict("riesz bounds stable under widening the section and "
             "two-scale refinement residuals < 1e-9 (ou, levels 0..3)", ok)


def test_acceptance_bracket_sums(unit_builder, ou_builder):
    u = bracket_sum(unit_builder)
    o = bracket_sum(ou_builder)
    ok = (u.passed and abs(u.statistics["lower"] - 1.0) < 1e-10
          and abs(u.statistics["upper"] - 1.0) < 1e-10
          and o.passed and 1e-3 < o.statistics["lower"]
          and o.statistics["upper"] < 1e3)
    _verdict("bracket sums: identically 1 for the unit filter, bounded "
             "away from 0 and infinity for ou", ok)


def test_acceptance_ou_process(ou_plan):
    t = ou_plan.times
    diag = covariance_kernel(ou_plan, t, t)
    slice0 = covariance_kernel(ou_plan, t, np.zeros_like(t))
    target_diag = 0.5 * np.ones_like(t)
    sup_err = max(float(np.max(np.abs(diag - target_diag))),
                  float(np.max(np.abs(slice0 - np.exp(-np.abs(t)) / 2.0))))
    ensemble = simulate(ou_plan)
    probes = [(u, 0.0) for u in t[:10]] + [(u, u) for u in t[-10:]]
    stats = empirical_covariance(ensemble, probes)
    hits = sum(1 for s in stats
               if abs(s["estimate"] - math.exp(-abs(s["t"] - s["s"])) / 2.0)
               < 3.0 * s["se"])
    ok = sup_err < 5e-3 and hits >= 18
    print(f"  kernel sup error {sup_err:.2e}, "
          f"monte carlo probes within 3 se: {hits}/20")
    _verdict("synthesized ou process matches exp(-|t-s|)/2: kernel sup "
             "error < 5e-3, >= 18/20 empirical probes within 3 se", ok)


def test_acceptance_fbm_scaling():
    deltas = [2.0**-e for e in range(2, 7)]
    result = fbm_scaling(1.2, deltas)
    h_hat = result.statistics["H_hat"]
    ok = result.passed and abs(h_hat - 0.70) < 0.05
    print(f"  estimated hurst exponent {h_hat:.4f}")
    _verdict("fractional synthesis with d = 1.2 gives increment-variance "
             "exponent H = 0.70 +/- 0.05", ok)


def test_acceptance_cli_reproducible(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["counterexample", "--out", str(out)]) == 0
    first = (out / "counterexample_report.json").read_bytes()
    first_csv = (out / "counterexample.csv").read_bytes()
    assert cli_main(["counterexample", "--out", str(out)]) == 0
    ok = ((out / "counterexample_report.json").read_bytes() == first
          and (out / "counterexample.csv").read_bytes() == first_csv
          and json.loads(first)["schema"] == "1")
    _verdict("cli reruns are byte-identical (reports and csv)", ok)
