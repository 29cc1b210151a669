import json
import math

import pytest

from vaguelab.report import (RULES, CheckResult, config_hash, dump_report,
                             judge, render_report, report_merge)


def _check(name, passed):
    # a verdict is made from statistics only: biorthogonality_defect's one
    # bound is max_defect < 1e-6, and NaN decides nothing
    defect = {True: 0.0, False: 1.0, None: math.nan}[passed]
    check = CheckResult("biorthogonality_defect",
                        statistics={"max_defect": defect})
    check.name = name
    return check


def test_config_hash_is_canonical():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert len(config_hash({})) == 16


def test_render_report_pass_logic():
    good = render_report([_check("x", True)], {"k": 1})
    assert good["pass"] is True and good["schema"] == "1"
    bad = render_report([_check("x", True), _check("y", False)], {"k": 1})
    assert bad["pass"] is False
    # inconclusive counts as not passing
    unknown = render_report([_check("x", None)], {"k": 1})
    assert unknown["pass"] is False


def test_report_embeds_config_and_hash():
    cfg = {"alpha": 0.5}
    rep = render_report([_check("x", True)], cfg)
    assert rep["config"] == cfg
    assert rep["config_hash"] == config_hash(cfg)


def test_report_merge():
    cfg = {"k": 1}
    a = render_report([_check("x", True)], cfg)
    b = render_report([_check("y", True)], cfg)
    merged = report_merge([a, b])
    assert merged["pass"] is True and merged["failing"] == []
    c = render_report([_check("z", False)], cfg)
    merged = report_merge([a, c])
    assert merged["pass"] is False and merged["failing"] == ["z"]


def test_report_merge_hash_mismatch():
    a = render_report([_check("x", True)], {"k": 1})
    b = render_report([_check("y", True)], {"k": 2})
    with pytest.raises(ValueError):
        report_merge([a, b])
    with pytest.raises(ValueError):
        report_merge([])


def test_dump_report_reproducible():
    rep = render_report([_check("x", True)], {"b": 2, "a": 1})
    assert dump_report(rep) == dump_report(rep)
    assert dump_report(rep).endswith("\n")
    json.loads(dump_report(rep))  # valid JSON


def test_nonfinite_values_serializable():
    check = CheckResult("build_manifest",
                        statistics={"a": math.inf, "b": math.nan,
                                    "c": complex(1, 2)})
    text = dump_report(render_report([check], {}))
    doc = json.loads(text)
    stats = doc["checks"][0]["statistics"]
    assert stats["a"] == "inf" and stats["b"] == "nan"
    assert stats["c"] == [1.0, 2.0]


def test_verdict_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        CheckResult("build_manifest", passed=True)
    assert CheckResult("build_manifest").passed is True  # no bounds
    with pytest.raises(KeyError):
        CheckResult("no_such_check")


@pytest.mark.parametrize("defect, passed, margin", [
    (1e-9, True, 3.0), (1e-3, False, -3.0), (0.0, True, math.inf),
    (1e-6, False, 0.0), (math.inf, False, -math.inf)])
def test_margin_is_signed_decades_to_the_threshold(defect, passed, margin):
    check = CheckResult("biorthogonality_defect",
                        statistics={"max_defect": defect})
    (bound,) = check.bounds
    assert check.passed is passed
    assert bound == {"statistic": "max_defect", "sense": "<",
                     "threshold": 1e-6,
                     "margin": pytest.approx(margin, abs=1e-12)}
    # outside statistics, and serializable when infinite
    entry = json.loads(dump_report(render_report([check], {})))["checks"][0]
    assert set(entry["statistics"]) == {"max_defect"}
    assert len(entry["bounds"]) == 1


def test_trust_limit_makes_inconclusive_before_any_bound():
    stats = {"C1": 1e-9, "C2": 1.0, "eigen_residual": 1e-8}
    assert CheckResult("riesz_bounds", stats).passed is False
    for residual in (2e-8, math.inf, math.nan):
        check = CheckResult("riesz_bounds",
                            {**stats, "eigen_residual": residual})
        assert check.passed is None
        assert check.bounds[0]["statistic"] == "eigen_residual"
        assert check.bounds[0]["sense"] == "<="
    # a list statistic is trusted only when every value is finite
    level = {"band_ratio": 2.0, "growth_trend": False}
    assert CheckResult("decay_statistic",
                       {**level, "per_j": [1.0, 2.0]}).passed is True
    for bad in (math.nan, math.inf):
        assert CheckResult("decay_statistic",
                           {**level, "per_j": [1.0, bad, 2.0]}).passed is None


def test_nan_bound_is_inconclusive_unless_another_bound_is_missed():
    rule = (("a", "<", 1.0), ("b", "<", 1.0))
    assert judge(rule, {"a": 0.5, "b": 0.5}, {})[0] is True
    assert judge(rule, {"a": 0.5, "b": math.nan}, {})[0] is None
    assert judge(rule, {"a": 0.5}, {})[0] is None  # missing reads as NaN
    assert judge(rule, {"a": 2.0, "b": math.nan}, {})[0] is False
    # an infinite statistic is compared, not voided
    assert judge(rule, {"a": 0.5, "b": math.inf}, {})[0] is False


def test_thresholds_that_depend_on_parameters():
    meyer, db = ({"wavelet": kind} for kind in ("meyer", "daubechies"))
    stats = {"max_defect": 1e-11}
    assert CheckResult("cmf_identity", stats, meyer).passed is False
    assert CheckResult("cmf_identity", stats, db).passed is True
    # the K-doubling bound applies from K = 8 on
    grown = {"lambda_max": 2.0, "lambda_max_doubled_K": 3.0}
    short = CheckResult("synthesis_bound", grown, {"K": 4})
    assert short.passed is True and len(short.bounds) == 1
    long = CheckResult("synthesis_bound", grown, {"K": 8})
    assert long.passed is False
    assert long.bounds[1]["threshold"] == pytest.approx(2.2)
    # vaguelet_violation: the measured slope beats the forced one by 0.2
    forced = {"forced_slope": -1.5}
    assert CheckResult("vaguelet_violation",
                       {**forced, "measured_slope": -0.5}).passed is True
    assert CheckResult("vaguelet_violation",
                       {**forced, "measured_slope": -1.4}).passed is False


def test_every_rule_names_a_sense_and_a_threshold():
    for name, rule in RULES.items():
        for key, sense, threshold in rule:
            assert isinstance(key, str) and sense in ("<", ">", "<="), name
            # a trust limit is positive; a fixed bound is finite
            assert callable(threshold) or (
                threshold > 0 if sense == "<=" else math.isfinite(threshold))
