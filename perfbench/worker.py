"""One benchmark round in a fresh process.

Started by run.py with the working directory at the repository root and
the thread counts fixed. It imports the package, makes the workload's
inputs, runs each operation once (timed), checks its outputs (untimed)
and prints one JSON record as its last line of standard output. With
--trace 1 every call into the package is recorded as a span.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

WORK = Path(".perfbench")


def blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                           "libscipy_openblas*.so*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def stamp() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "VAGUELET_LAB_THREADS": os.environ.get("VAGUELET_LAB_THREADS")}


def time_commands(commands: dict, stages: dict) -> None:
    """Wrap the CLI subcommand table so each subcommand's time is kept."""
    for name, fn in list(commands.items()):
        def timed(cfg, fn=fn, name=name):
            start = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                stages[name] = (stages.get(name, 0.0)
                                + time.perf_counter() - start)
        commands[name] = timed


def run_ops(ops, stages: dict, untimed=contextlib.nullcontext) -> list:
    """Run each operation once; an exception or a failed gate marks it
    failed and the round goes on with the next operation. Checks run
    inside the untimed() context."""
    from workloads import GateFailure

    records = []
    for op in ops:
        stages.clear()
        error, result = None, None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                result = op.run()
        except Exception as exc:
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        record = {"op": op.name, "start": start, "end": end,
                  "seconds": end - start,
                  "cpu_seconds": time.process_time() - cpu_start,
                  "stages": dict(stages),
                  "values": {}}
        if error is None:
            try:
                with untimed():
                    record["values"] = op.check(result)
            except GateFailure as exc:
                error = f"gate: {exc}"
            except Exception as exc:
                traceback.print_exc()
                error = f"check raised {type(exc).__name__}: {exc}"
        record["error"] = error
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src-sha", required=True,
                        help="digest of the package sources")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import vaguelab
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK,
                                                  args.src_sha)
    workload.setup()
    record = {"setup_s": time.monotonic() - args.spawned_at,
              "vaguelab": str(Path(vaguelab.__file__).resolve().parent),
              "baselines": workload.baselines, "stamp": stamp()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            tracer.install("vaguelab", layers.HOOKS, layers.EXTRA_METHODS)
        stages: dict = {}
        from vaguelab import cli

        time_commands(cli.COMMANDS, stages)
        untimed = tracer.paused if tracer else contextlib.nullcontext
        ops = record["ops"] = run_ops(workload.ops(), stages, untimed)
        if tracer is not None:
            record["layers"] = layers.reduce(
                tracer, [(op["start"], op["end"]) for op in ops],
                [op["values"] for op in ops])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
