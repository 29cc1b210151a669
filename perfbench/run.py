"""vaguelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each round runs the workload once in a fresh
process (worker.py) with BLAS and VAGUELET_LAB_THREADS fixed at 1. Rounds
repeat while the next one is expected to end within S seconds, and at
least MIN_ROUNDS run. With --trace 0 the last line of standard output is a
JSON object holding the end-to-end metrics; with --trace 1 rounds
alternate untraced and traced and it holds the per-layer metrics. The lines before it print every metric,
per-operation times and the run's stamp. Full results are written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ROUNDS = 2
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VAGUELET_LAB_THREADS")
WORKLOADS = ("cli-all-meyer", "synthesis-meyer", "daubechies-verify")
# units of the values the workloads' checks return, for the printed table
VALUE_UNITS = {"output_bytes": "B", "output_mb": "MB", "output_files": "count",
               "probes_within_3se": "count", "unwritable_reports": "count",
               "ratio_slope_err": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def declared_metrics(kind: str) -> list:
    """(name, unit) of the metrics BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, src_sha: str, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0", "--src-sha", src_sha]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    if Path(record["vaguelab"]) != ROOT / "src" / "vaguelab":
        raise BenchError(f"imported vaguelab from {record['vaguelab']}")
    return record


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def round_wall(record) -> float:
    return sum(op["seconds"] for op in record["ops"])


def stage_times(record) -> dict:
    """Seconds per stage: the CLI subcommands an operation ran, or the
    operation itself when it ran none."""
    out = {}
    for op in record["ops"]:
        for name, seconds in (op["stages"] or {op["op"]: op["seconds"]}).items():
            key = name.replace("-", "_") + "_s"
            out[key] = out.get(key, 0.0) + seconds
    return out


def accuracy_err(values: dict, baselines: dict) -> float:
    """Largest accuracy statistic as a share of its value at the commit
    that defined the benchmark, so each one starts near 1."""
    return max(values[name] / base for name, base in baselines.items())


def median_of(records, fn) -> float:
    return statistics.median(fn(r) for r in records)


def summarize(rounds, setups, baselines) -> dict:
    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    ops = [op for r in rounds for op in r["ops"]]
    failures = [f"{op['op']}: {op['error']}" for op in ops if op["error"]]
    values = {}
    for r in rounds:
        for op in r["ops"]:
            values.update(op["values"])
    info = {"rounds": len(rounds), "traced_rounds": len(traced),
            "attempted": len(ops), "failed": len(failures),
            "failures": failures,
            "failed_ops_ratio": len(failures) / len(ops),
            "values": values,
            "stages": {k: statistics.median(stage_times(r)[k]
                                            for r in untraced)
                       for k in stage_times(untraced[0])}}
    e2e = {
        "wall_s": median_of(untraced, round_wall),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
    }
    if not failures:
        e2e["accuracy_err"] = accuracy_err(values, baselines)
    for r in traced:
        trace = r["layers"]
        if (trace["trace.spans_outside"]
                or abs(trace["trace.residual_s"]) > 1e-6 * trace["trace.wall_s"]):
            raise BenchError("traced self times do not add up to the wall time")
    layer = {}
    if traced:
        for key in traced[0]["layers"]:
            layer[key] = median_of(traced, lambda r: r["layers"][key])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
    return {"info": info, "e2e": e2e, "layers": layer}


def print_report(args, stamp, summary) -> None:
    info = summary["info"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={info['rounds']} traced={info['traced_rounds']}")
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    units = dict(declared_metrics("end_to_end"))
    for name, value in summary["e2e"].items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for name, value in info["stages"].items():
        print(f"{name:40s} {value:14.6g} s")
    for name, value in sorted(info["values"].items()):
        print(f"{name:40s} {value:14.6g} {VALUE_UNITS.get(name, '1')}")
    print(f"{'failed_ops_ratio':40s} {info['failed_ops_ratio']:14.6g} ratio")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    if summary["layers"]:
        import layers

        for name, unit in layers.TABLE:
            print(f"{name:40s} {summary['layers'][name]:14.6g} {unit}")


def run(args) -> dict:
    if not (ROOT / "src" / "vaguelab" / "__init__.py").is_file():
        raise BenchError(f"no vaguelab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    src_sha = source_digest()
    setups = []
    if not args.trace:
        setups = [spawn(args, src_sha, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_start = time.monotonic()
        rounds.append(spawn(args, src_sha, deadline, trace=traced))
        if not traced:
            setups.append(rounds[-1]["setup_s"])
        now = time.monotonic()
        took = now - round_start
        # start another round only if it should end within --seconds
        if len(rounds) >= MIN_ROUNDS and (now - start + took > args.seconds
                                          or now + took > deadline):
            break
    summary = summarize(rounds, setups, rounds[0]["baselines"])
    stamp = {"git": git_sha(), "src_sha256": src_sha,
             "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             **rounds[0]["stamp"]}
    print_report(args, stamp, summary)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": stamp, **summary, "rounds": rounds},
                             indent=1, sort_keys=True))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = summary["info"]
    names = declared_metrics("per_layer" if args.trace else "end_to_end")
    source = summary["layers"] if args.trace else summary["e2e"]
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in names if name in source}
    print(json.dumps({"correct": not info["failures"],
                      "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
