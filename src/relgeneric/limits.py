"""Newtonian-limit study: sweep the speed of light against a classical baseline.

The members are the configured parameters at each c of ``limit.c_values``
and, last, at c = INFINITE, the baseline.  All share the identical initial
data and time step, the smallest auto step of the members, so deviations
isolate the c-dependence of the dynamics.  A heat sweep steps at the heat
stability bound, h^2 / (2 nu) for every c up to its round-off margin; a
kinetic sweep at the transient step, each member running the configured
``model.variant``, which at c = INFINITE is the Kramers equation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import heat as HT
from .config import RunConfig
from .grid import LineGrid, time_steps
from .kfp import KfpOperator, make_initial_state, step_kfp
from .model import INFINITE


def heat_initial(cfg: RunConfig, grid: LineGrid) -> np.ndarray:
    sigma = cfg.heat_sigma if cfg.heat_sigma is not None else grid.L / 10.0
    width = cfg.heat_width if cfg.heat_width is not None else grid.L / 4.0
    return HT.initial_profile(cfg.heat_init_kind, grid, sigma=sigma, width=width)


def run_limit_study(cfg: RunConfig) -> list[tuple[float, float]]:
    """(c, max-norm deviation from the c = INFINITE member at t_final) for each swept c;
    a kinetic sweep builds its operators, which name a bad model, before its initial state."""
    members = [replace(cfg.params, c=c) for c in cfg.limit_cs + (INFINITE,)]
    if cfg.limit_kind == "heat":
        grid, runs = cfg.heat_grid, members
        rho0 = heat_initial(cfg, grid)
        auto_dt = [HT.stable_dt(grid, p) for p in members]

        def final_density(params, dt):
            return HT.run_heat(grid, params, rho0, dt, cfg.t_final, record_every=10**9).state.rho
    else:
        grid = cfg.phase_grid
        # identical initial data: built once from the classical parameters
        runs = [KfpOperator(grid, p, cfg.potential, cfg.variant) for p in members]
        state0 = make_initial_state(cfg.init, grid, members[-1], cfg.potential)
        auto_dt = [op.transient_dt() for op in runs]

        def final_density(op, dt):
            n_steps, step_dt = time_steps(cfg.t_final, dt)
            return step_kfp(state0, op, step_dt, steps=n_steps).rho

    dt = min(auto_dt + ([] if cfg.dt is None else [cfg.dt]))
    rho_classical = final_density(runs[-1], dt)
    # zip stops before the classical member
    return [(c, float(np.abs(final_density(run, dt) - rho_classical).max()))
            for c, run in zip(cfg.limit_cs, runs)]

