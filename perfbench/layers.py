"""Per-layer metrics computed from the spans of one traced ``cli.main`` call.

A layer is a package module.  Times named ``*_us`` / ``*_ms`` are the median
inclusive duration of one call; ``*_s`` are totals over the call; ``*_calls``
and ``*.steps`` are exact counts.  A function the workload never calls
reports 0.

Next to the metrics, ``layer_metrics`` returns time shares of the
``cli.main`` call: each module's self time, ``kfp.diagnostics_s``, and the
inclusive time of the functions in ``SHARES``, which check the statements a
workload was chosen on.
"""

from __future__ import annotations

import numpy as np

from tracer import MODULES, span_cost_s

# metric name -> (span name, statistic)
SPAN_METRICS = {
    "kfp.steps": ("kfp.step_kfp", "calls"),
    "kfp.rhs_calls": ("kfp.KfpOperator.rhs", "calls"),
    "kfp.rhs_us": ("kfp.KfpOperator.rhs", "median_us"),
    "kfp.transport_tendency_us": ("kfp.KfpOperator.transport_tendency", "median_us"),
    "kfp.dissipative_flux_us": ("kfp.KfpOperator.dissipative_flux", "median_us"),
    "kfp.step_us": ("kfp.step_kfp", "median_us"),
    "kfp.stable_dt_calls": ("kfp.KfpOperator.stable_dt", "calls"),
    "kfp.operator_build_ms": ("kfp.KfpOperator.__init__", "median_ms"),
    "generic.degeneracy_residuals_ms": ("generic.degeneracy_residuals", "median_ms"),
    "generic.dissipative_faces_calls": ("generic.dissipative_faces", "calls"),
    "generic.apply_dissipative_us": ("generic.apply_dissipative", "median_us"),
    "model.hamiltonian_calls": ("model.hamiltonian", "calls"),
    "model.boltzmann_weight_calls": ("model.boltzmann_weight", "calls"),
    "heat.steps": ("heat.step_heat", "calls"),
    "heat.step_us": ("heat.step_heat", "median_us"),
    "heat.rhs_us": ("heat.heat_rhs", "median_us"),
    "heat.face_flux_calls": ("heat.face_flux", "calls"),
    "heat.saturation_excess_us": ("heat.saturation_excess", "median_us"),
    "heat.boltzmann_entropy_us": ("heat.boltzmann_entropy", "median_us"),
    "io.dump_density_ms": ("io.dump_density", "median_ms"),
    "io.dump_calls": ("io.dump_density", "calls"),
    "io.write_timeseries_csv_ms": ("io.write_timeseries_csv", "median_ms"),
    "config.load_config_ms": ("config.load_config", "median_ms"),
}

# share label -> spans whose inclusive time (nested calls counted once) it is
SHARES = {
    "rhs": ["kfp.KfpOperator.rhs"],
    "transport_tendency": ["kfp.KfpOperator.transport_tendency"],
    "step_kfp": ["kfp.step_kfp"],
    "dump_density": ["io.dump_density"],
    "saturation_excess": ["heat.saturation_excess"],
    "face_flux": ["heat.face_flux"],
    "step_heat": ["heat.step_heat"],
    "dissipative_faces + hamiltonian": ["generic.dissipative_faces", "model.hamiltonian"],
}

_SCALE = {"median_us": 1e6, "median_ms": 1e3}


def _statistic(row, stat: str) -> float:
    if row is None or row["calls"] == 0:
        return 0
    if stat == "calls":
        return row["calls"]
    return float(np.median(row["durations"])) * _SCALE[stat]


def diagnostics_s(summary: dict, names: list[str]) -> float:
    """Self time of kfp.integrate outside step_kfp and the on_record hook."""
    ids = {name: k for k, name in enumerate(names)}
    if "kfp.integrate" not in ids:
        return 0.0
    nid, dur, parent = summary["nid"], summary["dur"], summary["parent"]
    integrate = nid == ids["kfp.integrate"]
    skip = np.isin(nid, [ids[n] for n in ("kfp.step_kfp", "cli.on_record") if n in ids])
    under = (parent >= 0) & skip
    under &= integrate[np.where(parent >= 0, parent, 0)]
    return float(dur[integrate].sum() - dur[under].sum())


def inclusive_s(summary: dict, names: list[str], span_names: list[str]) -> float:
    """Time inside any span named in ``names``, nested spans counted once."""
    ids = [k for k, name in enumerate(span_names) if name in names]
    mask = np.isin(summary["nid"], ids)
    start = summary["start"][mask]
    order = np.argsort(start, kind="stable")      # a parent before its children
    start, end = start[order], (start + summary["dur"][mask])[order]
    # spans nest, so a span is outermost iff it starts after all earlier ones end
    outer = np.ones(len(start), dtype=bool)
    outer[1:] = start[1:] >= np.maximum.accumulate(end)[:-1]
    return float((end - start)[outer].sum())


def layer_metrics(tracer) -> tuple[dict, dict]:
    """(per-layer metrics, time shares of the cli.main call)."""
    summary = tracer.summary()
    by_name = summary["by_name"]
    out = {metric: _statistic(by_name.get(span), stat)
           for metric, (span, stat) in SPAN_METRICS.items()}
    out["kfp.diagnostics_s"] = diagnostics_s(summary, tracer.names)
    root = by_name["cli.main"]
    total = float(root["durations"].sum())
    for module in MODULES:
        self_s = summary["layer_self_s"][module]
        out[f"{module}.self_s"] = self_s
        out[f"{module}.self_share"] = self_s / total
    out["cli.self_ms"] = out.pop("cli.self_s") * 1e3
    out["trace.spans"] = len(summary["dur"])
    cost = span_cost_s()
    out["trace.span_cost_us"] = cost * 1e6
    out["trace.estimated_overhead_s"] = cost * len(summary["dur"])
    out["trace.traced_wall_s"] = total
    shares = {label: inclusive_s(summary, names, tracer.names) / total
              for label, names in SHARES.items()}
    shares["kfp.diagnostics_s"] = out["kfp.diagnostics_s"] / total
    shares.update({f"{m} self": out[f"{m}.self_share"] for m in MODULES})
    return out, shares
