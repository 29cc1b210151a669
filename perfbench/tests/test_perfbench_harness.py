"""Harness tests at tiny sizes: metric names, failure counting, layer sums."""

import json
import re
from pathlib import Path

import layers
import run
import worker
from spans import Tracer
from workloads import GateFailure, Op

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = run.declared_metrics("end_to_end") + run.declared_metrics(
        "per_layer")
    names = ([n for n, _ in declared + layers.TABLE]
             + [w["name"] for w in spec["workloads"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)


def test_forced_exception_and_failed_gate_count_as_failed_ops():
    def boom():
        raise RuntimeError("forced")

    def bad_gate(result):
        raise GateFailure("wrong output")

    ops = [Op("ok", lambda: 1, lambda r: {"x": r}),
           Op("raises", boom, lambda r: {}),
           Op("gate", lambda: 2, bad_gate)]
    records = worker.run_ops(ops, {})
    assert [r["error"] is None for r in records] == [True, False, False]
    assert records[1]["error"].startswith("RuntimeError")
    assert records[2]["error"].startswith("gate:")
    rounds = [{"ops": records, "peak_rss_mb": 1.0, "setup_s": 0.1}]
    summary = run.summarize(rounds, [0.1], {"x": 1.0})
    assert summary["info"]["attempted"] == 3
    assert summary["info"]["failed"] == 2
    assert summary["info"]["failed_ops_ratio"] == 2 / 3
    assert "accuracy_err" not in summary["e2e"]


def test_accuracy_err_is_the_largest_share_of_a_baseline():
    assert run.accuracy_err({"a": 3.0, "b": 1.0, "c": 9.0},
                            {"a": 2.0, "b": 0.5}) == 2.0


def test_layer_self_times_and_unspanned_time_add_up_to_wall():
    tracer = Tracer()
    grids = tracer.wrap(lambda: sum(range(1000)), "grids.f", "grids")
    fam = tracer.wrap(lambda: grids() + grids(), "family.g", "family")
    start = tracer.clock()
    fam()
    grids()
    end = tracer.clock()
    out = layers.reduce(tracer, [(start, end)],
                        [{"output_bytes": 5}, {"unwritable_reports": 1,
                                               "output_bytes": 2}])
    assert out["cli.bytes_written"] == 7
    assert out["report.unwritable_reports"] == 1
    spanned = sum(out[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert out["trace.wall_s"] == end - start
    assert abs(spanned + out["unspanned_s"] - out["trace.wall_s"]) < 1e-12
    assert out["unspanned_s"] > 0.0
    assert abs(out["trace.residual_s"]) < 1e-12
    assert out["trace.spans_outside"] == 0


def test_orphaned_worker_spans_break_the_sum():
    from concurrent.futures import ThreadPoolExecutor
    import time

    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.01), "vaguelet.work", "vaguelet")

    def command():
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(work).result()

    start = tracer.clock()
    tracer.wrap(command, "cli.command", "cli")()
    end = tracer.clock()
    out = layers.reduce(tracer, [(start, end)])
    # without the context executor the worker span is a second root that
    # overlaps its caller, so its time is counted twice
    assert out["trace.residual_s"] < -0.005
