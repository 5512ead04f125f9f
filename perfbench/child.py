"""One measured call of relgeneric in a fresh process.

    child.py setup   --experiment E --config C --result R
    child.py run     --experiment E --config C --out D --result R [--spans S]
    child.py kernels --out D --seed N --result R

``setup`` times importing ``relgeneric.cli`` plus ``config.load_config`` and
exits.  ``run`` does the same, then times one ``cli.main`` call and checks
the files it wrote; with ``--spans`` the package is traced for that call and
the per-layer numbers are computed from the spans.  ``kernels`` times the
kernel sheet and the verify suite, with ``--seed`` as the suite seed.  Each
mode writes its result as JSON to ``--result``.

numpy is imported by the package under test, so this file imports nothing
heavy before the set-up timer stops.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def timed_setup(config: str, experiment: str):
    start = time.perf_counter()
    cli = importlib.import_module("relgeneric.cli")
    cfg = cli.load_config(config, experiment)
    return time.perf_counter() - start, cli, cfg


def check_origin(root: Path) -> None:
    import relgeneric
    origin = Path(relgeneric.__file__).resolve()
    if root.resolve() / "src" not in origin.parents:
        raise SystemExit(f"relgeneric imported from {origin}, not from {root}/src")


def _check(name, value, limit, ok):
    return {"name": name, "value": value, "limit": limit, "ok": bool(ok)}


def output_checks(experiment: str, cfg, out: Path) -> tuple[list, dict]:
    """Checks on the files one call wrote, plus ungated values to report."""
    from relgeneric import heat, io, limits, model
    checks, info = [], {}
    records = io.read_timeseries_csv(out / "timeseries.csv")
    mass_drift = max(abs(r.mass - records[0].mass) for r in records)
    checks.append(_check("mass drift", mass_drift, 1e-10, mass_drift <= 1e-10))
    info["records"] = len(records)
    if experiment in ("kfp", "stationary"):
        e0 = records[0].E
        drift = max(abs(r.E - e0) for r in records) / abs(e0)
        checks.append(_check("relative energy drift", drift, 1e-6, drift <= 1e-6))
    if experiment == "kfp" and cfg.dump_every > 0:
        ok = abs(records[-1].t - cfg.t_final) <= 1e-12 * cfg.t_final
        checks.append(_check("reached t_final", records[-1].t, cfg.t_final, ok))
        dumps = len(list(out.glob("density_[0-9]*.txt")))
        want = -(-len(records) // cfg.dump_every)
        checks.append(_check("density dumps written", dumps, want, dumps == want))
    if experiment == "stationary":
        grid = cfg.phase_grid
        kind, _, rho = io.load_density(out / "density_final.txt")
        rho_inf, _ = model.maxwellian(grid, cfg.params, cfg.potential)
        l1 = float(abs(rho - rho_inf).sum()) * grid.cell_volume
        checks.append(_check("converged: L1 to Maxwellian", l1, cfg.l1_target,
                             kind == "kfp" and l1 <= cfg.l1_target))
        info["t_end"] = records[-1].t
    if experiment == "heat":
        grid = cfg.heat_grid
        _, _, rho = io.load_density(out / "density_final.txt")
        r0 = heat.support_radius(limits.heat_initial(cfg, grid), grid)
        # ungated: the scheme is known to outrun c T + 2h at the 1e-12 contour
        info["support_growth"] = heat.support_radius(rho, grid) - r0
        info["support_growth_bound"] = cfg.params.c * cfg.t_final + 2.0 * grid.h
    return checks, info


def run(args) -> dict:
    root = Path(args.root)
    setup_s, cli, cfg = timed_setup(args.config, args.experiment)
    check_origin(root)
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        cli = importlib.import_module("relgeneric.cli")
    argv = [args.experiment, "--config", args.config, "--out", args.out]
    result = {"setup_s": setup_s, "rc": None, "error": None}
    start = time.perf_counter()
    try:
        result["rc"] = cli.main(argv)
    except Exception as exc:  # a crash is a failed call, reported not raised
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        from layers import layer_metrics
        result["layers"], result["shares"] = layer_metrics(tracer)
        tracer.save(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = Path(args.out)
    result["bytes_written"] = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
    checks = [_check("cli.main returns 0", result["rc"], 0, result["rc"] == 0)]
    if result["rc"] == 0:
        try:
            more, result["info"] = output_checks(args.experiment, cfg, out)
            checks += more
        except (OSError, ValueError, IndexError) as exc:
            checks.append(_check("outputs readable", str(exc), "readable", False))
    result["checks"] = checks
    return result


def setup(args) -> dict:
    setup_s, _, _ = timed_setup(args.config, args.experiment)
    check_origin(Path(args.root))
    return {"setup_s": setup_s}


def kernels(args) -> dict:
    from kernels import kernel_sheet, verify_sheet
    sheet = kernel_sheet(Path(args.out))
    verify, failed = verify_sheet(args.seed)
    check_origin(Path(args.root))
    return {"kernels": {**sheet, **verify}, "verify_failed": failed}


def main() -> int:
    # one CPU for the whole call: no migrations between the machine's cores
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "kernels"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--experiment")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = {"setup": setup, "run": run, "kernels": kernels}[args.mode](args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
