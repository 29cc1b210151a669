"""Named verification checks with statistics, parameters and pass/fail."""

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


@dataclass
class CheckResult:
    """One named check: statistics plus verdict (None = inconclusive)."""

    name: str
    passed: bool | None
    statistics: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # NumPy bools from array comparisons are not JSON serializable
        if self.passed is not None:
            self.passed = bool(self.passed)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "statistics": _jsonable(self.statistics),
            "params": _jsonable(self.params),
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
