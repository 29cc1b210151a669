"""Per-layer metrics of a traced round.

The layers are the modules of ``vaguelab``. Each layer reports its self
time (span time minus the time its child spans cover) plus counts taken at
its boundary. Count hooks run after a wrapped call returns; they read the
arguments and results only through attributes, never through wrapped
methods, so they open no spans of their own.
"""

from __future__ import annotations

import numpy as np

from spans import END, LAYER, NAME, PARENT, START

LAYERS = ("cli", "report", "grids", "mra", "filters", "family", "vaguelet",
          "riesz", "counterexample", "procsim")

# (metric, unit) pairs of the printed per-layer table, in print order
TABLE = [
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("cli.files_written", "count"),
    ("report.self_s", "s"), ("report.check_results", "count"),
    ("report.unwritable_reports", "count"),
    ("grids.self_s", "s"), ("grids.transform.self_s", "s"),
    ("grids.transform.calls", "count"), ("grids.transform.points", "count"),
    ("grids.transform.n_max", "count"),
    ("grids.transform.bytes_computed", "B"),
    ("grids.inner_product.calls", "count"),
    ("mra.self_s", "s"), ("mra.phi_hat.calls", "count"),
    ("mra.psi_hat.calls", "count"), ("mra.u_hat.calls", "count"),
    ("mra.points", "count"),
    ("filters.self_s", "s"), ("filters.eval.calls", "count"),
    ("filters.eval.points", "count"),
    ("family.self_s", "s"), ("family.builders", "count"),
    ("family.generator.calls", "count"),
    ("family.generator.distinct", "count"),
    ("family.generator.computed", "count"),
    ("family.generator.reuse", "ratio"),
    ("family.level_profile.calls", "count"),
    ("family.level_profile.distinct", "count"),
    ("family.level_profile.reuse", "ratio"),
    ("family.level_spectrum.calls", "count"),
    ("family.member_at_scale_rescaled.calls", "count"),
    ("vaguelet.self_s", "s"), ("vaguelet.decay_statistic.self_s", "s"),
    ("vaguelet.holder_statistic.self_s", "s"),
    ("vaguelet.mean_check.self_s", "s"),
    ("vaguelet.synthesis_bound.self_s", "s"),
    ("riesz.self_s", "s"), ("riesz.gram.calls", "count"),
    ("riesz.gram.entries", "count"), ("riesz.gram.self_s", "s"),
    ("riesz.riesz_bounds.self_s", "s"),
    ("riesz.biorthogonality_defect.self_s", "s"),
    ("riesz.bracket_sum.self_s", "s"),
    ("riesz.refinement_identity.self_s", "s"),
    ("counterexample.self_s", "s"),
    ("counterexample.run_counterexample.calls", "count"),
    ("counterexample.scaled_peak.calls", "count"),
    ("counterexample.scaled_norm.calls", "count"),
    ("procsim.self_s", "s"), ("procsim.covariance_kernel.calls", "count"),
    ("procsim.simulate.calls", "count"),
    ("unspanned_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"), ("trace.residual_s", "s"),
    ("trace.spans_outside", "count"),
]

# span names whose calls are counted, by metric prefix
CALLS = {
    "grids.transform": ("grids.inverse_transform", "grids.forward_transform"),
    "grids.inner_product": ("grids.inner_product",),
    "mra.phi_hat": ("mra.WaveletSpec.phi_hat",),
    "mra.psi_hat": ("mra.WaveletSpec.psi_hat",),
    "mra.u_hat": ("mra.WaveletSpec.u_hat",),
    "filters.eval": ("filters.Filter.eval",),
    "family.generator": ("family.FamilyBuilder.generator",),
    "family.level_profile": ("family.FamilyBuilder.level_profile",),
    "family.level_spectrum": ("family.FamilyBuilder.level_spectrum",),
    "family.member_at_scale_rescaled": ("family.member_at_scale_rescaled",),
    "riesz.gram": ("riesz.gram",),
    "counterexample.run_counterexample":
        ("counterexample.run_counterexample",),
    "counterexample.scaled_peak": ("counterexample.scaled_peak",),
    "counterexample.scaled_norm": ("counterexample.scaled_norm",),
    "procsim.covariance_kernel": ("procsim.covariance_kernel",),
    "procsim.simulate": ("procsim.simulate",),
}

# span names whose self time is reported on its own
FUNCTION_SELF = {
    "grids.transform": ("grids.inverse_transform", "grids.forward_transform"),
    "vaguelet.decay_statistic": ("vaguelet.decay_statistic",),
    "vaguelet.holder_statistic": ("vaguelet.holder_statistic",),
    "vaguelet.mean_check": ("vaguelet.mean_check",),
    "vaguelet.synthesis_bound": ("vaguelet.synthesis_bound",),
    "riesz.gram": ("riesz.gram",),
    "riesz.riesz_bounds": ("riesz.riesz_bounds",),
    "riesz.biorthogonality_defect": ("riesz.biorthogonality_defect",),
    "riesz.bracket_sum": ("riesz.bracket_sum",),
    "riesz.refinement_identity": ("riesz.refinement_identity",),
}

# non-public methods wrapped as well: builder and check-result constructors
EXTRA_METHODS = {("family", "FamilyBuilder", "__init__"),
                 ("report", "CheckResult", "__init__")}


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _filter_key(h):
    return (type(h).__name__, repr(sorted(vars(h).items())))


def _builder_keys(tracer, builder):
    """(content key, instance key): content identifies what the builder
    computes, instance tells its cache apart from another builder's."""
    content = (builder.wavelet, _filter_key(builder.pair.h1),
               _filter_key(builder.pair.h2), builder.grid)
    return content, tracer.instance_id(builder)


def _transform_points(tracer, n):
    tracer.add("grids.transform.points", n)
    tracer.maximum("grids.transform.n_max", n)
    # one complex128 output array of n points, a computed figure
    tracer.add("grids.transform.bytes_computed", 16 * n)


def _inverse(tracer, span, args, kwargs, result):
    _transform_points(tracer, int(_arg(args, kwargs, 0, "f").grid.n))


def _forward(tracer, span, args, kwargs, result):
    _transform_points(tracer, int(_arg(args, kwargs, 1, "grid").n))


def _filter_eval(tracer, span, args, kwargs, result):
    tracer.add("filters.eval.points", int(np.size(_arg(args, kwargs, 1, "x"))))


def _mra_entry(tracer, span, args, kwargs, result):
    parent = span[PARENT]
    if parent is None or parent[LAYER] != "mra":
        tracer.add("mra.points", int(np.size(_arg(args, kwargs, 1, "x"))))


def _generator(tracer, span, args, kwargs, result):
    content, instance = _builder_keys(tracer, args[0])
    key = (_arg(args, kwargs, 1, "j"), _arg(args, kwargs, 2, "side"),
           _arg(args, kwargs, 3, "role"))
    tracer.key("family.generator.distinct", (content, key))
    tracer.key("family.generator.computed", (instance, key))


def _level_profile(tracer, span, args, kwargs, result):
    content, _ = _builder_keys(tracer, args[0])
    tracer.key("family.level_profile.distinct",
               (content, _arg(args, kwargs, 1, "j"),
                _arg(args, kwargs, 2, "side"), _arg(args, kwargs, 3, "role"),
                _arg(args, kwargs, 4, "pad_factor", 1)))


def _gram(tracer, span, args, kwargs, result):
    tracer.add("riesz.gram.entries", int(result.matrix.size))


HOOKS = {
    "grids.inverse_transform": _inverse,
    "grids.forward_transform": _forward,
    "filters.Filter.eval": _filter_eval,
    "mra.WaveletSpec.phi_hat": _mra_entry,
    "mra.WaveletSpec.psi_hat": _mra_entry,
    "mra.WaveletSpec.u_hat": _mra_entry,
    "mra.WaveletSpec.v_hat": _mra_entry,
    "family.FamilyBuilder.generator": _generator,
    "family.FamilyBuilder.level_profile": _level_profile,
    "riesz.gram": _gram,
}

# per-layer metrics summed from the values the operations' checks return
RECORDED = {"cli.bytes_written": "output_bytes",
            "cli.files_written": "output_files",
            "report.unwritable_reports": "unwritable_reports"}


def reduce(tracer, windows, values=()) -> dict:
    """Per-layer metrics over the measured (start, end) windows; values
    are the dicts the operations' checks returned.

    The layers' self times plus unspanned_s add up to trace.wall_s, the
    summed length of the windows; trace.residual_s is the difference. It
    stays at rounding level only if every span lies inside a window and
    spans from worker threads hang under the span that submitted them.
    """
    wall = sum(end - start for start, end in windows)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    name_self: dict = {}
    calls: dict = {}
    for span, self_s in tracer.self_times():
        layer_self[span[LAYER]] = layer_self.get(span[LAYER], 0.0) + self_s
        name_self[span[NAME]] = name_self.get(span[NAME], 0.0) + self_s
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for metric, names in FUNCTION_SELF.items():
        out[f"{metric}.self_s"] = sum(name_self.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        out[f"{metric}.calls"] = sum(calls.get(n, 0) for n in names)
    for key in ("grids.transform.points", "grids.transform.n_max",
                "grids.transform.bytes_computed", "mra.points",
                "filters.eval.points", "riesz.gram.entries"):
        out[key] = tracer.counts.get(key, 0)
    for key in ("family.generator.distinct", "family.generator.computed",
                "family.level_profile.distinct"):
        out[key] = len(tracer.distinct.get(key, ()))
    for prefix in ("family.generator", "family.level_profile"):
        distinct = out[f"{prefix}.distinct"]
        out[f"{prefix}.reuse"] = (out[f"{prefix}.calls"] / distinct
                                  if distinct else 0.0)
    out["family.builders"] = calls.get("family.FamilyBuilder.__init__", 0)
    out["report.check_results"] = calls.get("report.CheckResult.__init__", 0)
    for metric, key in RECORDED.items():
        out[metric] = sum(v.get(key, 0) for v in values)
    out["unspanned_s"] = wall - tracer.top_level_coverage(windows)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(tracer.spans)
    out["trace.residual_s"] = wall - out["unspanned_s"] - sum(
        out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans_outside"] = sum(
        1 for s in tracer.spans
        if not any(a <= s[START] and s[END] <= b for a, b in windows))
    return out
