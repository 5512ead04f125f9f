"""Newtonian-limit study: sweep the speed of light against a classical baseline.

All runs in a sweep share the identical initial data and the identical time
step, the smallest auto step across the sweep, so measured deviations
isolate the c-dependence of the dynamics.  A heat sweep steps at the heat
stability bound, h^2 / (2 nu) for every c up to its round-off margin; a
kinetic sweep at the transient step, with every finite-c member running the
configured ``model.variant`` (DH or DMR) against the Kramers baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import heat as HT
from .config import RunConfig
from .grid import LineGrid, time_steps
from .kfp import KfpOperator, make_initial_state, step_kfp
from .model import INFINITE, Variant


@dataclass
class LimitResult:
    kind: str
    deviations: list          # (c, max-norm deviation from classical) pairs
    monotone: bool


def heat_initial(cfg: RunConfig, grid: LineGrid) -> np.ndarray:
    sigma = cfg.heat_sigma if cfg.heat_sigma is not None else grid.L / 10.0
    width = cfg.heat_width if cfg.heat_width is not None else grid.L / 4.0
    return HT.initial_profile(cfg.heat_init_kind, grid, sigma=sigma, width=width)


def run_limit_heat(cfg: RunConfig) -> LimitResult:
    grid = cfg.heat_grid
    rho0 = heat_initial(cfg, grid)
    sweep = [replace(cfg.params, c=c) for c in cfg.limit_cs]
    baseline = replace(cfg.params, c=INFINITE)
    dt = min(HT.stable_dt(grid, p) for p in sweep + [baseline])
    if cfg.dt is not None:
        dt = min(dt, cfg.dt)

    def final_density(params):
        res = HT.run_heat(grid, params, rho0, dt, cfg.t_final, record_every=10**9)
        return res.state.rho

    rho_classical = final_density(baseline)
    deviations = [(p.c, float(np.abs(final_density(p) - rho_classical).max()))
                  for p in sweep]
    devs = [d for _, d in deviations]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    return LimitResult(kind="heat", deviations=deviations, monotone=monotone)


def run_limit_kfp(cfg: RunConfig) -> LimitResult:
    grid = cfg.phase_grid
    baseline = replace(cfg.params, c=INFINITE)
    sweep = [replace(cfg.params, c=c) for c in cfg.limit_cs]
    # identical initial data: built once from the classical parameters
    state0 = make_initial_state(cfg.init, grid, baseline, cfg.potential)
    ops = [KfpOperator(grid, p, cfg.potential, cfg.variant) for p in sweep]
    classical = KfpOperator(grid, baseline, cfg.potential, Variant.CLASSICAL)
    dt = min(op.transient_dt() for op in ops + [classical])
    if cfg.dt is not None:
        dt = min(dt, cfg.dt)
    # identical equal-step schedule for every member of the sweep
    n_steps, step_dt = time_steps(cfg.t_final, dt)

    def final_density(op):
        return step_kfp(state0, op, step_dt, steps=n_steps).rho

    rho_classical = final_density(classical)
    deviations = [(p.c, float(np.abs(final_density(op) - rho_classical).max()))
                  for p, op in zip(sweep, ops)]
    devs = [d for _, d in deviations]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    return LimitResult(kind="kfp", deviations=deviations, monotone=monotone)


def run_limit_study(cfg: RunConfig) -> LimitResult:
    if cfg.limit_kind == "heat":
        return run_limit_heat(cfg)
    return run_limit_kfp(cfg)


def write_limit_csv(result: LimitResult, path) -> None:
    lines = ["c,deviation"]
    for c, dev in result.deviations:
        lines.append(f"{format(c, '.17g')},{format(dev, '.17g')}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write limit study to {path}: {exc}") from exc
