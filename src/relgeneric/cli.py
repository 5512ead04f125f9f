"""Command-line front end.

    relgeneric <experiment> --config <path> [--out <dir>] [--seed <u64>]

Experiments: heat, kfp, verify, stationary, limit-study; only verify takes
a seed.  Exit status 0 means the run completed and every built-in check
passed, 1 means a check failed, the solver aborted or an output could not
be written, 2 means the config or the output directory was rejected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import heat as HT
from . import kfp as KF
from .config import EXPERIMENTS, ConfigError, RunConfig, load_config, parse_value
from .errors import PositivityError, StabilityError
from .io import dump_density, write_limit_csv, write_text, write_timeseries_csv
from .limits import heat_initial, run_limit_study
from .verify import check, run_verify


def _out_dir(cfg: RunConfig, override) -> Path:
    path = Path(override) if override else Path(cfg.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    return path


def _print_checks(checks) -> bool:
    for c in checks:
        print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: "
              f"{c.measured:.3e} {c.op} {c.tolerance!r}")
    return all(c.passed for c in checks)


def _stepped(cfg: RunConfig, out: Path, kind: str, driver, *args, **kwargs):
    """A driver's result, with its timeseries.csv and density_final.txt (at the
    last record's time) written; its on_record hook writes density_NNNN.txt
    every dump_every-th record, and there is none when dump_every is 0."""
    grid = cfg.heat_grid if kind == "heat" else cfg.phase_grid

    def on_record(state, t, index):
        if index % cfg.dump_every == 0:
            dump_density(kind, grid, state.rho, t, out / f"density_{index:04d}.txt")
    res = driver(*args, on_record=on_record if cfg.dump_every > 0 else None, **kwargs)
    write_timeseries_csv(res.records, out / "timeseries.csv")
    dump_density(kind, grid, res.state.rho, res.records[-1].t, out / "density_final.txt")
    return res


def _run_heat(cfg: RunConfig, out: Path) -> int:
    result = _stepped(cfg, out, "heat", HT.run_heat, cfg.heat_grid, cfg.params,
                      heat_initial(cfg, cfg.heat_grid), cfg.dt, cfg.t_final, cfg.record_every)
    drift = max(abs(r.mass - result.records[0].mass) for r in result.records)
    checks = [
        check("mass drift", drift, 1e-10),
        check("entropy change per step", result.min_step_entropy_delta, -1e-10, ">="),
        check("face-flux excess over c rbar (relative)", result.max_saturation_excess, 1e-12),
    ]
    print(f"heat run finished at t={result.state.t:g} ({len(result.records)} records; "
          f"superstep {result.dt:.6g} from {result.dt_from}; "
          f"steps {result.steps}, stages per step {result.stages}, "
          f"flux evaluations {result.evaluations}) -> {out}")
    return 0 if _print_checks(checks) else 1


def _run_kfp(cfg: RunConfig, out: Path) -> int:
    """A kfp run, or with the experiment's L1 target a stationary one."""
    target = cfg.l1_target if cfg.experiment == "stationary" else None
    res = _stepped(cfg, out, "kfp", KF.integrate, KF.KfpConfig(
        grid=cfg.phase_grid, params=cfg.params, potential=cfg.potential, variant=cfg.variant,
        dt=cfg.dt, t_final=cfg.t_final, record_every=cfg.record_every, init=cfg.init),
        l1_stop=target)
    records, last = res.records, res.records[-1]
    print(f"{cfg.experiment} run ({cfg.variant.value}) ended at t={last.t:g}, "
          f"L1 distance {last.l1:.3e}, excess e_inf={res.e_inf:.6g} "
          f"({len(records)} records; dt {res.dt:.6g} from {res.dt_from}; "
          f"steps {res.steps}, transport evaluations {res.evaluations}) -> {out}")
    energy = max(abs(r.E - records[0].E) for r in records) / abs(records[0].E)
    fall = min(np.diff([r.S for r in records]), default=0.0)
    rise = max(np.diff([r.relEnt for r in records]), default=0.0)
    bound = cfg.params.gamma * cfg.params.theta / cfg.params.m     # d = 1
    checks = [
        check("mass drift", max(abs(r.mass - records[0].mass) for r in records), 1e-10),
        check("relative energy drift", energy, 1e-6),
        check("entropy change per sample", fall, -1e-8, ">="),
        check("relative entropy change per sample", rise, 1e-8),
        check("d/dt int H rho vs gamma theta d/m", max(r.dHrho_dt for r in records),
              bound + 1e-10),
    ] + ([] if target is None else [check("L1 distance to the Maxwellian", last.l1, target)])
    return 0 if _print_checks(checks) else 1


def _run_verify(cfg: RunConfig, out: Path) -> int:
    results, report, ok = run_verify(cfg.phase_grid, cfg.params, cfg.potential,
                                     cfg.seed, cfg.verify)
    write_text(out / "verify_report.txt", "verify report", (report,))
    print(report, end="")
    return 0 if ok else 1


def _run_limit(cfg: RunConfig, out: Path) -> int:
    deviations = run_limit_study(cfg)
    write_limit_csv(deviations, out / "limit_study.csv")
    for c, dev in deviations:
        print(f"  c={c:g}: max-norm deviation from classical {dev:.6e}")
    stalls = sum(b >= a for (_, a), (_, b) in zip(deviations, deviations[1:]))
    print(f"limit study ({cfg.limit_kind}) -> {out}")
    return 0 if _print_checks([check("c pairs whose deviation does not fall", stalls, 0)]) else 1


_RUNNERS = {"heat": _run_heat, "kfp": _run_kfp, "stationary": _run_kfp,
            "verify": _run_verify, "limit-study": _run_limit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relgeneric",
        description="Structure-preserving relativistic heat / kinetic "
                    "Fokker-Planck experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", default=None,
                       help="override the config seed (verify only), an integer in [0, 2**64)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.experiment)
        if args.seed is not None:
            cfg.seed = parse_value("seed", args.seed, "--seed", args.experiment)
        out = _out_dir(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        return _RUNNERS[args.experiment](cfg, out)
    except (StabilityError, PositivityError, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
