"""Kernel sheet: per-call time of the hot public functions at fixed sizes.

Kinetic kernels use the ``stationary_dmr`` physics (DMR variant, cosine
landscape) on 64x64, 64x256 and 256x256 grids; heat kernels use the
``heat_bump`` physics at N = 512 and 4096.  Each time is the median over
batches of the per-call time within a batch.

``verify_sheet`` runs the structure-verification suite once on
``verify.cfg`` (32x32, 21 checks) with the benchmark seed as the suite seed
and times its check groups.  The suite's verdict is reported, not gated:
some seeds fail the program's own Poisson-antisymmetry tolerance.

Next to each time, ``*_computed_bytes`` is computed from array sizes, not
measured: the call's input and returned arrays plus every array the operator
holds (any ``np.ndarray`` attribute of the ``KfpOperator``, whatever its
name), each counted once; for dumps and loads it is the file size.  It is
meant for comparison between sizes, not as a roofline figure.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from relgeneric import heat as HT
from relgeneric import io
from relgeneric import kfp as KF
from relgeneric import verify as V
from relgeneric.config import parse_config
from relgeneric.limits import heat_initial
from run import base_config

PHASE_GRIDS = ((64, 64), (64, 256), (256, 256))
HEAT_SIZES = (512, 4096)
VERIFY_GROUPS = ("operator_checks", "refinement_checks", "assembly_checks")
BATCH_S = 0.03
BATCHES = 5


def per_call_us(fn) -> float:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    n = max(1, int(BATCH_S / max(first, 1e-9)))
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return float(np.median(times)) * 1e6


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def operator_bytes(op) -> int:
    """Bytes of every array the operator holds, as the program defines them."""
    return _nbytes(*(a for a in vars(op).values() if isinstance(a, np.ndarray)))


def phase_kernels(out: Path, nq: int, npp: int) -> dict:
    cfg = parse_config(base_config("stationary_dmr.cfg", **{"grid.nq": nq, "grid.np": npp}),
                       "stationary")
    grid = cfg.phase_grid
    op = KF.KfpOperator(grid, cfg.params, cfg.potential, cfg.variant)
    state = KF.make_initial_state(cfg.init, grid, cfg.params, cfg.potential)
    rho = state.rho
    dt = op.stable_dt()
    held = operator_bytes(op)
    drho, _ = op.rhs(state)
    tendency = op.transport_tendency(rho)
    flux = op.dissipative_flux(rho)
    stepped = KF.step_kfp(state, op, dt)
    path = out / f"kernel_{nq}x{npp}.txt"
    io.dump_density("kfp", grid, rho, 0.0, path)
    label = f"{nq}x{npp}"
    sheet = {
        f"rhs.{label}": (per_call_us(lambda: op.rhs(state)), held + _nbytes(rho, drho)),
        f"transport_tendency.{label}": (
            per_call_us(lambda: op.transport_tendency(rho)), held + _nbytes(rho, tendency)),
        f"dissipative_flux.{label}": (
            per_call_us(lambda: op.dissipative_flux(rho)), held + _nbytes(rho, flux)),
        f"step_kfp.{label}": (per_call_us(lambda: KF.step_kfp(state, op, dt)),
                              held + _nbytes(rho, stepped.rho)),
        f"dump_density.{label}": (
            per_call_us(lambda: io.dump_density("kfp", grid, rho, 0.0, path)),
            path.stat().st_size),
        f"load_density.{label}": (per_call_us(lambda: io.load_density(path)),
                                  path.stat().st_size),
    }
    path.unlink()
    return sheet


def heat_kernels(n: int) -> dict:
    cfg = parse_config(base_config("heat_bump.cfg", **{"grid.n": n}), "heat")
    grid, params = cfg.heat_grid, cfg.params
    state = HT.HeatState(rho=heat_initial(cfg, grid), t=0.0)
    dt = HT.stable_dt(grid, params)
    stepped = HT.step_heat(state, grid, params, dt)
    return {f"step_heat.N{n}": (per_call_us(lambda: HT.step_heat(state, grid, params, dt)),
                                _nbytes(state.rho, stepped.rho))}


def kernel_sheet(out: Path) -> dict:
    """{"kernel.<function>.<size>_us": time, "..._computed_bytes": bytes}."""
    out.mkdir(parents=True, exist_ok=True)
    rows = {}
    for nq, npp in PHASE_GRIDS:
        rows.update(phase_kernels(out, nq, npp))
    for n in HEAT_SIZES:
        rows.update(heat_kernels(n))
    sheet = {}
    for key, (us, nbytes) in rows.items():
        sheet[f"kernel.{key}_us"] = us
        sheet[f"kernel.{key}_computed_bytes"] = nbytes
    return sheet


def verify_sheet(seed: int) -> tuple[dict, list[str]]:
    """Times of the verify check groups in one suite run, and its failed checks.

    ``run_verify`` looks its groups up in the module at call time, so each
    group is timed by a wrapper under its module name for the one run.
    """
    cfg = parse_config(base_config("verify.cfg"), "verify")
    totals = dict.fromkeys(VERIFY_GROUPS, 0.0)
    originals = {name: getattr(V, name) for name in VERIFY_GROUPS}

    def timed(name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return originals[name](*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start
        return wrapper

    for name in VERIFY_GROUPS:
        setattr(V, name, timed(name))
    try:
        results, _, _ = V.run_verify(cfg.phase_grid, cfg.params, cfg.potential, seed,
                                     cfg.verify)
    finally:
        for name, fn in originals.items():
            setattr(V, name, fn)
    failed = [f"{r.name}: {r.measured:.6e} {r.op} {r.tolerance:.1e}"
              for r in results if not r.passed]
    sheet = {f"verify.{name}_s": total for name, total in totals.items()}
    sheet["verify.checks"] = len(results)
    sheet["verify.failed_checks"] = len(failed)
    return sheet, failed
