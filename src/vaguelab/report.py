"""Named verification checks with statistics, parameters and the verdict
RULES gives them: the one place that decides PASS, FAIL and INCONCLUSIVE."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field


def _jsonable(obj):
    """Coerce numpy scalars / inf to JSON-representable values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item"):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


FINITE = math.inf  # a trust limit asking only for finite values
LEVEL_BANDS = (("band_ratio", "<", 10.0), ("growth_trend", "<", 1))

# Every check's rule, keyed by its name without the _{side} or _j{j}
# suffix the CLI adds: (statistic, sense, threshold) triples. Sense "<"
# or ">" is a bound, and the check FAILs when it is missed. Sense "<=" is
# a trust limit: a statistic (any value of a list) that is not finite or
# exceeds it makes the check INCONCLUSIVE. A threshold may be a function
# of the check's (statistics, params), None where it does not apply.
RULES = {
    "cmf_identity": (("max_defect", "<", lambda s, p:
                      1e-12 if p["wavelet"] == "meyer" else 1e-10),),
    "build_manifest": (),
    "decay_statistic": (("per_j", "<=", FINITE),) + LEVEL_BANDS,
    "mean_check": (("max_scaled_value_at_zero", "<=", FINITE),
                   ("max_scaled_value_at_zero", "<", 1e-12)),
    "holder_statistic": (("per_j", "<=", FINITE),
                         ("per_j_refined", "<=", FINITE),
                         ("max_refinement_change", "<=", 0.2)) + LEVEL_BANDS,
    # below K = 8, B of a Riesz family still rises fast towards its K = inf
    # value (Meyer, h1 = ou, h2 = 1/(1 + x^2): 24 % at K = 1, 11 % at
    # K = 4; at most 7.2 % from K = 8 on, J <= 4)
    "synthesis_bound": (("lambda_max", "<", 100.0),
                        ("lambda_max_doubled_K", "<", lambda s, p:
                         1.1 * s["lambda_max"] if p["K"] >= 8 else None)),
    "riesz_bounds": (("eigen_residual", "<=", 1e-8), ("C1", ">", 1e-6),
                     ("C2", "<", lambda s, p: 1e6 * s["C1"])),
    # the unit products, e^-(L_a + L_b) times the families', underflow at ~708
    "biorthogonality_defect": (("max_log_norm_sum", "<=", 600.0),
                               ("max_defect", "<", 1e-6)),
    "bracket_sum": (("lower", ">", 1e-6), ("upper", "<", 1e6)),
    "refinement_identity": (("residual_phi", "<", 1e-9),
                            ("residual_eta", "<", 1e-9),
                            ("residual_det", "<", 1e-9)),
    "ratio_exponent": (("fit_residual", "<=", 0.1),
                       ("relative_slope_error", "<", 0.1)),
    "vaguelet_violation": (("measured_slope", ">",
                            lambda s, p: s["forced_slope"] + 0.2),),
    "simulate": (("empirical_var_near_zero", "<=", FINITE),
                 ("max_abs_path_value", "<=", FINITE)),
    "fbm_scaling": (("H_error", "<", 0.05),),
    # the paper's assumptions on the filters and the wavelet
    "quasi_homogeneity": (("band_ratio", "<", 100.0),
                          ("slope_residual", "<", 0.05)),
    "derivative_decay": (("band_ratio", "<", 1e3),),
    "local_scaling": (("band_ratio", "<", 10.0),),
    "h3_periodicity": (("relative_defect", "<", 1e-10),),
    "phi_lower_bound_on_K": (("inf_abs_phi", ">", 1e-3),),
    "fourier_decay_margins": (
        ("phi_slope", "<", lambda s, p: 0.05 - s["required_phi"]),
        ("psi_slope", "<", lambda s, p: 0.05 - s["required_psi"])),
}


def _log10(value: float) -> float:
    return math.log10(abs(value)) if value else -math.inf


def judge(rule: tuple, statistics: dict, params: dict) -> tuple:
    """(passed, bounds) under a rule: passed is None (INCONCLUSIVE) when a
    trust limit is missed; else False when a bound is missed; else None
    when a bound reads NaN (as it reads a missing statistic); else True.
    bounds lists each triple that applies with its margin, the decades
    between |statistic| and |threshold|, negative when it is missed."""
    entries, untrusted, undecided, missed = [], False, False, False
    for key, sense, threshold in rule:
        if callable(threshold):
            threshold = threshold(statistics, params)
            if threshold is None:
                continue
        v = statistics.get(key, math.nan)
        v = [float(x) for x in v] if isinstance(v, list) else [float(v)]
        v = math.nan if any(map(math.isnan, v)) else max(v)
        if sense == "<=":
            holds = math.isfinite(v) and v <= threshold
            untrusted |= not holds
        else:
            holds = v < threshold if sense == "<" else v > threshold
            nan = math.isnan(v) or math.isnan(threshold)
            undecided |= nan
            missed |= not (holds or nan)
        margin = abs(_log10(v) - _log10(threshold))
        entries.append({"statistic": key, "sense": sense,
                        "threshold": threshold,
                        "margin": margin if holds or not margin else -margin})
    if untrusted or (undecided and not missed):
        return None, entries
    return not missed, entries


@dataclass
class CheckResult:
    """One named check: statistics and params, with the verdict and the
    bounds judge() derives from RULES[name] (passed None = inconclusive)."""

    name: str
    statistics: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    passed: bool | None = field(init=False)
    bounds: list = field(init=False)

    def __post_init__(self):
        self.passed, self.bounds = judge(RULES[self.name], self.statistics,
                                         self.params)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "statistics": _jsonable(self.statistics),
            "params": _jsonable(self.params),
            "bounds": _jsonable(self.bounds),
        }


def config_hash(config: dict) -> str:
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def render_report(checks: list[CheckResult], config: dict) -> dict:
    """A single deterministic report document (schema version 1)."""
    return {
        "schema": "1",
        "config": _jsonable(config),
        "config_hash": config_hash(config),
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }


def report_merge(reports: list[dict]) -> dict:
    """Merge reports sharing one config hash into a summary document."""
    if not reports:
        raise ValueError("no reports to merge")
    hashes = {r["config_hash"] for r in reports}
    if len(hashes) != 1:
        raise ValueError(f"config hash mismatch across reports: {sorted(hashes)}")
    checks = [c for r in reports for c in r["checks"]]
    failing = [c["check"] for c in checks if not c["pass"]]
    return {
        "schema": "1",
        "config_hash": hashes.pop(),
        "checks": checks,
        "failing": failing,
        "pass": not failing,
    }


def dump_report(report: dict) -> str:
    """Byte-reproducible serialization (stable key order, no timestamps)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
