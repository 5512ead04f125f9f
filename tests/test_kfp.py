import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgeneric import generic as G
from relgeneric import kfp as K
from relgeneric import limits as L
from relgeneric.cli import main
from relgeneric.config import ConfigError, load_config, parse_config
from relgeneric.errors import NonConvergenceError, PositivityError, StabilityError
from relgeneric.grid import PhaseGrid, time_steps
from relgeneric.io import read_timeseries_csv
from relgeneric.model import (CosinePotential, HarmonicPotential, INFINITE,
                              ModelParams, Variant, ZeroPotential, boltzmann_weight,
                              grid_fields, maxwellian, mobility_drift,
                              mobility_drift_divergence, velocity)
from conftest import make_state

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def small_cfg(variant=Variant.DH, t_final=0.2, **kw):
    params = kw.pop("params", ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0))
    grid = kw.pop("grid", PhaseGrid(Nq=32, Np=64, Lq=4 * math.pi, Pmax=34.0))
    potential = kw.pop("potential", CosinePotential(amplitude=1.0, period=grid.Lq))
    return K.KfpConfig(grid=grid, params=params, potential=potential,
                       variant=variant, dt=None, t_final=t_final,
                       record_every=kw.pop("record_every", 4),
                       init=kw.pop("init", K.InitSpec(kind="shifted-maxwellian", p0=0.5)))


# ---------------------------------------------------------------------------
# right-hand side structure

def test_dissipative_part_vanishes_on_maxwellian():
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
        rinf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
        tend = op.dissipative_tendency(rinf)
        u = rinf / op.rhat
        scale = cfg.params.gamma * cfg.params.theta \
            * float((op.dface * op.rhat_face).max()) * float(u.max()) / cfg.grid.hp**2
        assert float(np.abs(tend).max()) <= 1e-14 * scale


def test_rhs_mass_conservative(rng):
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
    drho, _ = op.rhs(state)
    assert abs(float(np.sum(drho))) <= 1e-12 * float(np.sum(np.abs(drho)))


def test_pure_transport_conserves_kinetic_energy(rng):
    # gamma has no effect on the transport part; with V=0 and a tiny gamma the
    # energy exchange integral is tiny as well
    params = ModelParams(m=1.0, c=1.0, gamma=1e-12, theta=1.0)
    grid = PhaseGrid(Nq=16, Np=32, Lq=16.0, Pmax=34.0)
    pot = ZeroPotential()
    op = K.KfpOperator(grid, params, pot, Variant.DH)
    state = make_state(rng, grid, params, pot)
    drho, de = op.rhs(state)
    h_rate = G.inner(grid, op.h_cells, drho)
    assert abs(h_rate) <= 1e-10 * float(np.abs(op.h_cells).max())
    assert abs(de) <= 1e-10


def test_dual_assembly_identity(rng):
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
        for _ in range(5):
            state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
            drho1, de1 = op.rhs(state)
            v_e = G.gradient_energy(state, cfg.grid, cfg.params, cfg.potential)
            v_s = G.gradient_entropy(state, cfg.grid, cfg.params)
            brackets = G.Brackets(state, cfg.grid, cfg.params, cfg.potential, variant)
            l_rho, l_e = brackets.poisson(v_e)
            m_rho, m_e = brackets.dissipative(v_s)
            scale = max(float(np.abs(drho1).max()), abs(de1), 1e-300)
            assert float(np.abs(drho1 - (l_rho + m_rho)).max()) <= 1e-10 * scale
            assert abs(de1 - (l_e + m_e)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# excess energy

def test_excess_rate_compensates_energy_exactly(rng):
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
    drho, de = op.rhs(state)
    h_rate = G.inner(cfg.grid, op.h_cells, drho)
    scale = abs(h_rate) + abs(de) + 1e-300
    assert abs(de + h_rate) <= 1e-10 * scale


def excess_energy_rate_quadrature(state: G.State, grid: PhaseGrid,
                                  params: ModelParams, variant: Variant) -> float:
    """Midpoint quadrature of the continuum excess-energy law.

    gamma * int (D grad_p H . grad_p H) rho - gamma theta * int div_p(D grad_p H) rho,
    evaluated with the pointwise model functions.  Agrees with
    the rate rhs returns at second order in hp and satisfies the exact bound
    -rate <= gamma theta d / m for arbitrary nonnegative mass-1 densities.
    """
    pv = grid.p[:, np.newaxis]
    drift_dot_vel = np.sum(mobility_drift(pv, variant, params)
                           * velocity(pv, params), axis=-1)
    div_drift = mobility_drift_divergence(pv, variant, params)
    weight = params.gamma * (drift_dot_vel - params.theta * div_drift)
    return float(np.sum(state.rho * weight[np.newaxis, :])) * grid.cell_volume


def test_excess_quadrature_delta_state():
    # density concentrated at p=0: the drift integral vanishes and the rate is
    # exactly -gamma theta d / m
    cfg = small_cfg()
    grid, params = cfg.grid, cfg.params
    rho = np.zeros(grid.shape)
    j0 = int(np.argmin(np.abs(grid.p)))
    assert abs(grid.p[j0]) < grid.hp  # grid is even, center straddles p=0
    rho[3, j0] = 1.0 / grid.cell_volume
    rate = excess_energy_rate_quadrature(G.State(rho, 0.0), grid, params, Variant.DH)
    drift_term = params.gamma * (params.c * grid.p[j0] ** 2
                                 / (params.m * math.sqrt((params.m * params.c) ** 2
                                                         + grid.p[j0] ** 2)))
    expected = drift_term - params.gamma * params.theta * params.d / params.m
    assert rate == pytest.approx(expected, rel=1e-13)


def test_excess_quadrature_universal_bound(rng):
    # -rate = d/dt int H rho <= gamma theta d/m holds for arbitrary densities
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        for _ in range(20):
            rho = rng.uniforms(cfg.grid.Nq * cfg.grid.Np, 0.0, 1.0).reshape(cfg.grid.shape)
            rho /= float(np.sum(rho)) * cfg.grid.cell_volume
            rate = excess_energy_rate_quadrature(G.State(rho, 0.0), cfg.grid,
                                                 cfg.params, variant)
            bound = cfg.params.gamma * cfg.params.theta * cfg.params.d / cfg.params.m
            assert -rate <= bound + 1e-12


def test_excess_forms_agree_on_smooth_states(rng):
    # the face-sum form converges to the pointwise quadrature at second order
    params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
    pot = HarmonicPotential(stiffness=0.25)
    errs = []
    for n in (64, 128):
        grid = PhaseGrid(Nq=16, Np=n, Lq=34.0, Pmax=34.0)
        op = K.KfpOperator(grid, params, pot, Variant.DH)
        rinf, _ = maxwellian(grid, params, pot)
        rho = rinf * (1.0 + 0.3 * np.sin(2 * np.pi * grid.q_mesh / grid.Lq)
                      * np.exp(-0.1 * grid.p_mesh**2))
        rho /= float(np.sum(rho)) * grid.cell_volume
        state = G.State(rho, 0.0)
        a = op.rhs(state)[1]
        b = excess_energy_rate_quadrature(state, grid, params, Variant.DH)
        errs.append(abs(a - b))
    assert errs[1] <= errs[0] / 3.0


# ---------------------------------------------------------------------------
# stepping and conservation

def test_step_zero_dt(rng):
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
    new = K.step_kfp(state, op, 0.0)
    assert np.array_equal(new.rho, state.rho) and new.e == state.e


def test_step_rejects_unstable_dt(rng):
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
    with pytest.raises(StabilityError):
        K.step_kfp(state, op, 100.0 * op.stable_dt())
    with pytest.raises(ValueError, match="steps"):
        K.step_kfp(state, op, op.stable_dt(), steps=0)


def _split_step_matrix(op, dt):
    """The dense matrix of one split step D(dt/2) T D(dt/2) on the density,
    assembled column by column from the stepper's kernels (no dt check)."""
    n = op.grid.Nq * op.grid.Np
    matrix = np.empty((n, n))
    unit, out = np.zeros(op.grid.shape), np.empty(op.grid.shape)
    for k in range(n):
        unit.flat[k] = 1.0
        op._dissipate_into(unit, 0.5 * dt, op._mid)
        K._transport_rk4(op._mid, op, dt, out)
        op._dissipate_into(out, 0.5 * dt, out)
        matrix[:, k] = out.ravel()
        unit.flat[k] = 0.0
    return matrix


def _radius(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def _kinetic_params(c, gamma=0.5):
    """Unit parameters at c and the grid's momentum edge for them."""
    params = ModelParams(m=1.0, c=c, gamma=gamma, theta=1.0)
    return params, 8.4 if params.classical else 34.0


# each variant at c = 1, and the Kramers equation: DMR at c = INFINITE
KINETIC_CASES = [pytest.param(Variant.DH, 1.0, id="Variant.DH"),
                 pytest.param(Variant.DMR, 1.0, id="Variant.DMR"),
                 pytest.param(Variant.DMR, INFINITE, id="classical")]


def _stability_op(nq, npp, variant, c, potential, gamma):
    params, pmax = _kinetic_params(c, gamma)
    grid = PhaseGrid(Nq=nq, Np=npp, Lq=4 * math.pi, Pmax=pmax)
    pot = (CosinePotential(amplitude=1.0, period=grid.Lq) if potential == "cosine"
           else HarmonicPotential(stiffness=0.25))
    return K.KfpOperator(grid, params, pot, variant)


STABILITY_CASES = [
    pytest.param(shape, v, c, pot, gamma,
                 id=f"{shape[0]}x{shape[1]}-{v.value if c < INFINITE else 'classical'}"
                    f"-{pot}-{gamma:g}")
    for shape, v, c, pot, gamma in
    [((12, 24), v, c, pot, gamma)
     for v, c in ((Variant.DH, 1.0), (Variant.DMR, 1.0), (Variant.DH, INFINITE))
     for pot in ("cosine", "harmonic") for gamma in (0.05, 20.0)]
    + [((8, 64), Variant.DH, 1.0, "cosine", 0.05), ((8, 64), Variant.DMR, 1.0, "harmonic", 20.0),
       ((8, 64), Variant.DH, INFINITE, "harmonic", 0.05)]]


@pytest.mark.parametrize("shape,variant,c,potential,gamma", STABILITY_CASES)
def test_split_step_is_stable_at_stable_dt(shape, variant, c, potential, gamma):
    op = _stability_op(*shape, variant, c, potential, gamma)
    assert op.transient_dt() < op.stable_dt()
    assert _radius(_split_step_matrix(op, op.stable_dt())) <= 1.0 + 1e-12


def test_split_step_is_unstable_at_twice_stable_dt():
    # the stability test above detects a bound set too high
    op = _stability_op(12, 24, Variant.DMR, 1.0, "cosine", 0.05)
    assert _radius(_split_step_matrix(op, 2.0 * op.stable_dt())) > 1.5


def test_auto_step_is_the_bound_for_stationarity_and_transient_otherwise(monkeypatch):
    cfg = small_cfg(record_every=1)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    cfg = dataclasses.replace(cfg, t_final=3.5 * op.stable_dt())
    dts = []
    step = K.step_kfp
    monkeypatch.setattr(K, "step_kfp", lambda st, op, dt, steps=1:
                        dts.append(dt) or step(st, op, dt, steps=steps))
    K.integrate(cfg)
    assert dts == [time_steps(cfg.t_final, op.transient_dt())[1]] * 15
    dts.clear()
    # half the initial L1: not met before the last of the four steps
    rho0 = K.make_initial_state(cfg.init, cfg.grid, cfg.params, cfg.potential).rho
    l1_0 = K.l1_distance(rho0, maxwellian(cfg.grid, cfg.params, cfg.potential)[0], cfg.grid)
    res = K.run_to_stationarity(cfg, l1_target=0.5 * l1_0)
    assert dts == [time_steps(cfg.t_final, op.stable_dt())[1]] * 4
    assert res.t_end == cfg.t_final


def test_energy_conserved_to_roundoff():
    cfg = small_cfg(t_final=0.5)
    res = K.integrate(cfg)
    energies = [r.E for r in res.records]
    assert max(abs(e - energies[0]) for e in energies) / abs(energies[0]) <= 1e-12
    masses = [r.mass for r in res.records]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12


def test_entropy_nondecreasing_per_step():
    cfg = small_cfg(t_final=0.3, record_every=1)
    res = K.integrate(cfg)
    deltas = np.diff([r.S for r in res.records])
    assert deltas.min() >= -1e-10


def test_entropy_production_rate_consistency():
    # recorded dS/dt must be nonnegative up to the tiny antisymmetric-transport
    # boundary term
    cfg = small_cfg(t_final=0.2)
    res = K.integrate(cfg)
    assert all(r.dSdt >= -1e-10 for r in res.records)


def test_degeneracy_residuals_along_run():
    cfg = small_cfg(t_final=0.2)
    res = K.integrate(cfg)
    assert all(r.degM == 0.0 for r in res.records)
    assert all(r.degL > 0.0 for r in res.records)


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_integrate_records_match_public_functions(variant, c):
    # every record and aux entry equals its recomputation from the public
    # functions, and the recorded states are those of a chain of step_kfp
    # calls, one per record interval; record_every=2 records after some
    # steps and not after others
    params, pmax = _kinetic_params(c)
    grid = PhaseGrid(Nq=32, Np=64, Lq=4 * math.pi, Pmax=pmax)
    cfg = small_cfg(variant, params=params, grid=grid, record_every=2)
    pot = cfg.potential
    op = K.KfpOperator(grid, params, pot, variant)
    cfg = dataclasses.replace(cfg, t_final=4.5 * op.transient_dt())  # five steps
    seen = []
    res = K.integrate(cfg, on_record=lambda st, t, index: seen.append((st, t)))
    rho_inf, _ = maxwellian(grid, params, pot)
    assert len(seen) == len(res.records) == 4
    for rec, extra, (st, t) in zip(res.records, res.aux, seen):
        drho, de = op.rhs(st)
        v_s = G.gradient_entropy(st, grid, params)
        deg_l, deg_m = G.Brackets(st, grid, params, pot, variant).degeneracy_residuals()
        assert rec == G.DiagnosticsRecord(
            t=t, E=G.energy_functional(st, grid, params, pot),
            S=G.entropy_functional(st, grid, params),
            mass=float(np.sum(st.rho)) * grid.cell_volume,
            dSdt=G.inner(grid, v_s.xi, drho) + v_s.r * de, degL=deg_l, degM=deg_m,
            relEnt=K.relative_entropy(st.rho, rho_inf, grid), e=st.e)
        assert extra == {"l1": K.l1_distance(st.rho, rho_inf, grid), "dHrho_dt": -de}
    n_steps = math.ceil(cfg.t_final / op.transient_dt() - 1e-12)
    dt = cfg.t_final / n_steps
    chain = [seen[0][0]]
    for steps in (2, 2, 1):
        chain.append(K.step_kfp(chain[-1], op, dt, steps=steps))
    assert len(chain) == len(seen)
    for (st, _), ref in zip(seen, chain):
        assert np.array_equal(st.rho, ref.rho) and st.e == ref.e
    assert res.state is seen[-1][0]
    # merging adjacent half steps moves only round-off from single steps
    single = [seen[0][0]]
    for _ in range(n_steps):
        single.append(K.step_kfp(single[-1], op, dt))
    for (st, _), rec, k in zip(seen, res.records, (0, 2, 4, 5)):
        ref = single[k]
        assert float(np.abs(st.rho - ref.rho).max()) <= 1e-13 * float(ref.rho.max())
        assert abs(st.e - ref.e) <= 1e-13 * abs(rec.E)


def _record_shape_cfg(t_steps):
    """The kfp_conserve physics on the 128x128 grid of the record-bound
    benchmark (DH, harmonic trap), a record after every step, t_steps steps."""
    cfg = load_config(CONFIGS / "kfp_conserve.cfg", "kfp")
    grid = dataclasses.replace(cfg.phase_grid, Nq=128, Np=128)
    op = K.KfpOperator(grid, cfg.params, cfg.potential, cfg.variant)
    kcfg = K.KfpConfig(grid=grid, params=cfg.params, potential=cfg.potential,
                       variant=cfg.variant, dt=None,
                       t_final=(t_steps - 0.5) * op.transient_dt(), record_every=1,
                       init=cfg.init)
    return kcfg, op


def test_record_pass_bitwise_equal_to_public_functions_at_record_shape():
    # every record and aux value of a run at the record-bound shape has the
    # bits of its recomputation from the public functions
    cfg, op = _record_shape_cfg(4)
    grid, params, pot, variant = cfg.grid, cfg.params, cfg.potential, cfg.variant
    seen = []
    res = K.integrate(cfg, on_record=lambda st, t, index: seen.append((st, t)))
    rho_inf, _ = maxwellian(grid, params, pot)
    assert len(seen) == len(res.records) == 5
    for rec, extra, (st, t) in zip(res.records, res.aux, seen):
        drho, de = op.rhs(st)
        v_s = G.gradient_entropy(st, grid, params)
        deg_l, deg_m = G.Brackets(st, grid, params, pot, variant).degeneracy_residuals()
        ref = G.DiagnosticsRecord(
            t=t, E=G.energy_functional(st, grid, params, pot),
            S=G.entropy_functional(st, grid, params),
            mass=float(np.sum(st.rho)) * grid.cell_volume,
            dSdt=G.inner(grid, v_s.xi, drho) + v_s.r * de, degL=deg_l, degM=deg_m,
            relEnt=K.relative_entropy(st.rho, rho_inf, grid), e=st.e)
        assert np.array_equal(_bits(dataclasses.astuple(rec)), _bits(dataclasses.astuple(ref)))
        assert list(extra) == ["l1", "dHrho_dt"]
        assert np.array_equal(_bits(list(extra.values())),
                              _bits([K.l1_distance(st.rho, rho_inf, grid), -de]))


def test_record_pass_allocates_no_grid_array():
    # one record at the record-bound shape runs in the operator's workspace.
    # numpy's own ufunc buffers (up to three operands of np.getbufsize()
    # doubles, 192 KiB by default) do not scale with the grid; with them
    # shrunk, the rest of the pass stays under half a grid array, so a single
    # full-grid temporary fails here
    cfg, op = _record_shape_cfg(1)
    rho_inf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
    state = K.step_kfp(K.make_initial_state(cfg.init, cfg.grid, cfg.params, cfg.potential),
                       op, op.transient_dt())
    record_pass = K.RecordPass(op, rho_inf)
    first = record_pass(state, 0.0)
    grid_bytes = state.rho.nbytes
    for bufsize, budget in ((np.getbufsize(), 2 * grid_bytes), (1024, grid_bytes // 2)):
        old = np.setbufsize(bufsize)
        tracemalloc.start()
        try:
            again = record_pass(state, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak < budget
        assert again == first


# The allocating calculus, right-hand side and split step the workspace
# kernels replaced, kept as the reference they must match bit for bit.  The
# transport and the split step follow the kernels' arithmetic: the stencils
# on the pre-scaled velocities, RK4 in Horner form and the dissipative flux
# through one flux map; test_transport_matches_the_generic_stencils,
# test_horner_rk4_matches_the_stage_form and
# test_flux_map_update_matches_the_per_row_flux check these against the
# generic calculus, the stage form and W rho.

def _ref_grad_p(grid, a):
    hp = grid.hp
    out = np.empty_like(a)
    out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * hp)
    out[:, 0] = (a[:, 1] - a[:, 0]) / hp
    out[:, -1] = (a[:, -1] - a[:, -2]) / hp
    return out


def _ref_div_p(grid, f):
    hp = grid.hp
    out = np.empty_like(f)
    out[:, 2:-2] = (f[:, 3:-1] - f[:, 1:-3]) / (2.0 * hp)
    out[:, 0] = f[:, 0] / hp + f[:, 1] / (2.0 * hp)
    out[:, 1] = -f[:, 0] / hp + f[:, 2] / (2.0 * hp)
    out[:, -2] = -f[:, -3] / (2.0 * hp) + f[:, -1] / hp
    out[:, -1] = -f[:, -2] / (2.0 * hp) - f[:, -1] / hp
    return out


def _ref_face_div_p(grid, f):
    z = np.zeros((f.shape[0], 1))
    return (np.concatenate([f, z], axis=1) - np.concatenate([z, f], axis=1)) / grid.hp


def _ref_flux(op, rho):
    u = rho / op.rhat
    return op.diff_face * ((u[:, 1:] - u[:, :-1]) / op.grid.hp)


def _ref_transport(op, rho):
    a, b = rho * op.q_rate, rho * op.p_rate
    dp = np.empty_like(b)
    dp[:, 1:-1] = b[:, 2:] - b[:, :-2]
    dp[:, 1] -= b[:, 0]
    dp[:, -2] += b[:, -1]
    dp[:, 0] = 2.0 * b[:, 0] + b[:, 1]
    dp[:, -1] = -2.0 * b[:, -1] - b[:, -2]
    return (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) + dp


def _ref_rhs(op, state):
    grid, rho = op.grid, state.rho
    flux = _ref_flux(op, rho)
    drho = _ref_transport(op, rho) + _ref_face_div_p(grid, flux)
    return drho, float(np.sum(op.gh_face * flux)) * grid.cell_volume


def _ref_flux_map(op, h, pair=False):
    # B = h S W with S = diag(diff_face) face_grad_p diag(1/rhat) on the row of
    # least V; the pair map B2 = 2 B + (B Dv) B, Dv face_div_p's matrix
    i = int(np.argmin(op.h_cells[:, 0]))
    u = op._map(h) / op.rhat[i][:, np.newaxis]
    b = (u[1:] - u[:-1]) * ((h / op.grid.hp) * op.diff_face[i][:, np.newaxis])
    return ((b[:, :-1] - b[:, 1:]) / op.grid.hp) @ b + b + b if pair else b


def _ref_dissipate(op, rho, h, pair=False):
    flux = rho @ _ref_flux_map(op, h, pair).T
    return (rho + _ref_face_div_p(op.grid, flux),
            float(np.sum(op.gh_face * flux)) * op.grid.cell_volume)


def _ref_transport_rk4(op, r0, dt):
    x = r0 + (0.25 * dt) * _ref_transport(op, r0)
    x = r0 + (dt / 3.0) * _ref_transport(op, x)
    x = r0 + (0.5 * dt) * _ref_transport(op, x)
    return r0 + dt * _ref_transport(op, x)


def _ref_step_kfp(state, op, dt, steps=1):
    # D(h) [T D2]^(steps - 1) T D(h), positivity checked after each D2 and at the end
    rho, de = _ref_dissipate(op, state.rho, 0.5 * dt)
    e = state.e + de
    for k in range(steps):
        rho, de = _ref_dissipate(op, _ref_transport_rk4(op, rho, dt), 0.5 * dt,
                                 pair=k < steps - 1)
        e += de
        if rho.min() < K.NEGATIVE_TOL:
            raise PositivityError(f"density undershoot {rho.min():.3e}")
    return G.State(rho=rho, e=e)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _variant_cfg(variant, record_every, steps, c=1.0):
    params, pmax = _kinetic_params(c)
    grid = PhaseGrid(Nq=32, Np=64, Lq=4 * math.pi, Pmax=pmax)
    cfg = small_cfg(variant, params=params, grid=grid, record_every=record_every)
    op = K.KfpOperator(grid, params, cfg.potential, variant)
    return dataclasses.replace(cfg, t_final=(steps - 0.5) * op.transient_dt()), op


def test_calculus_bitwise_equal_to_allocating_reference():
    # signed zeros included: face_div_p's edge columns are f - 0 and 0 - f
    grid = PhaseGrid(Nq=8, Np=10, Lq=3.0, Pmax=2.0)
    choices = np.array([0.0, -0.0, 1.0, -2.5, 3e-300, 0.1])
    a = choices[np.add.outer(np.arange(8), np.arange(10)) % 6]   # each value in each column
    for fn, ref, arg in ((G.grad_p, _ref_grad_p, a), (G.div_p, _ref_div_p, a),
                         (G.face_div_p, _ref_face_div_p, a[:, 1:]),
                         (G.face_grad_p, lambda g, x: (x[:, 1:] - x[:, :-1]) / g.hp, a)):
        expected = ref(grid, arg)
        for x in (arg, np.asfortranarray(arg)):
            for out in (None, np.full(expected.shape, np.nan)):
                assert np.array_equal(_bits(fn(grid, x, out=out)), _bits(expected))


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_transport_matches_the_generic_stencils(variant, c, rng):
    # the pre-scaled kernel against generic.div_q and div_p on the unscaled
    # velocities; the step bounds still come from the unscaled speeds
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    grid, h = cfg.grid, op.h_cells
    for _ in range(3):
        rho = make_state(rng, grid, cfg.params, cfg.potential).rho
        q_part = G.div_q(grid, rho * -G.grad_p(grid, h))
        p_part = G.div_p(grid, rho * G.grad_q(grid, h))
        scale = max(float(np.abs(q_part).max()), float(np.abs(p_part).max()))
        got = op.transport_tendency(rho)
        assert float(np.abs(got - (q_part + p_part)).max()) <= 1e-13 * scale
    vq, vp = float(np.abs(G.grad_p(grid, h)).max()), float(np.abs(G.grad_q(grid, h)).max())
    assert op.stable_dt() == 2.0 / (vq / grid.hq + vp / grid.hp)
    assert op.transient_dt() == min(0.4 * grid.hq / vq, 0.4 * grid.hp / vp)


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_horner_rk4_matches_the_stage_form(variant, c, rng):
    # the transport is linear and autonomous, so classical RK4's four stages
    # give the degree-4 Taylor polynomial the Horner form evaluates
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    transport, dt = op.transport_tendency, op.stable_dt()
    for _ in range(3):
        r0 = make_state(rng, cfg.grid, cfg.params, cfg.potential).rho
        k1 = transport(r0)
        k2 = transport(r0 + 0.5 * dt * k1)
        k3 = transport(r0 + 0.5 * dt * k2)
        k4 = transport(r0 + dt * k3)
        stages = r0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        horner = np.empty(cfg.grid.shape)
        K._transport_rk4(r0, op, dt, horner)
        assert float(np.abs(horner - stages).max()) <= 1e-14 * float(np.abs(r0).max())


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_rhs_bitwise_equal_to_allocating_reference(variant, c, rng):
    # the kernel the record pass shares with rhs, which the integrate test
    # below can no longer swap for the reference
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    for _ in range(3):
        state = make_state(rng, cfg.grid, cfg.params, cfg.potential, e=0.3)
        drho, de = op.rhs(state)
        ref_drho, ref_de = _ref_rhs(op, state)
        assert np.array_equal(_bits(drho), _bits(ref_drho)) and _bits(de) == _bits(ref_de)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_integrate_bitwise_equal_to_allocating_reference(variant, c, record_every,
                                                         monkeypatch):
    cfg, _ = _variant_cfg(variant, record_every, steps=7, c=c)

    def run():
        seen = []
        res = K.integrate(cfg, on_record=lambda st, t, index: seen.append(st))
        return res, seen + [res.state]

    res, states = run()
    monkeypatch.setattr(K, "step_kfp", _ref_step_kfp)
    monkeypatch.setattr(K.KfpOperator, "rhs", _ref_rhs)
    ref, ref_states = run()
    assert len(states) == len(ref_states) == len(res.records) + 1
    for st, ref_st in zip(states, ref_states):
        assert np.array_equal(_bits(st.rho), _bits(ref_st.rho))
        assert _bits(st.e) == _bits(ref_st.e)
    for rec, ref_rec in zip(res.records, ref.records):
        assert np.array_equal(_bits(dataclasses.astuple(rec)),
                              _bits(dataclasses.astuple(ref_rec)))
    for extra, ref_extra in zip(res.aux, ref.aux):
        assert extra.keys() == ref_extra.keys()
        assert np.array_equal(_bits(list(extra.values())), _bits(list(ref_extra.values())))


def test_states_and_returned_arrays_never_alias_the_workspace():
    cfg, op = _variant_cfg(Variant.DH, record_every=2, steps=7)
    seen = []
    res = K.integrate(cfg, on_record=lambda st, t, index: seen.append((st, st.rho.copy())))
    for st, kept in seen:              # later steps left each handed-out state alone
        assert np.array_equal(_bits(st.rho), _bits(kept))
    assert res.state is seen[-1][0]

    state = seen[0][0]
    stepped = K.step_kfp(state, op, op.stable_dt())
    kept = stepped.rho.copy()
    K.step_kfp(K.step_kfp(stepped, op, op.stable_dt()), op, op.stable_dt())
    assert np.array_equal(_bits(stepped.rho), _bits(kept))

    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    returned = []
    for _ in range(2):
        returned += [op.rhs(state)[0], op.transport_tendency(state.rho),
                     op.dissipative_flux(state.rho), op.dissipative_tendency(state.rho),
                     K.step_kfp(state, op, op.stable_dt()).rho]
    for i, a in enumerate(returned):
        for b in held + returned[:i] + [state.rho]:
            assert not np.shares_memory(a, b)


def test_step_allocation_budget_at_64x256():
    # a warm step, single or merged, allocates its new density and little
    # else; the allocating step it replaced peaked at about ten grid arrays
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0)
    grid = PhaseGrid(Nq=64, Np=256, Lq=4 * math.pi, Pmax=20.0)
    pot = CosinePotential(amplitude=1.0, period=grid.Lq)
    op = K.KfpOperator(grid, params, pot, Variant.DMR)
    state = K.make_initial_state(K.InitSpec(p0=0.5), grid, params, pot)
    state = K.step_kfp(state, op, op.stable_dt(), steps=2)
    for steps in (1, 4):
        tracemalloc.start()
        try:
            K.step_kfp(state, op, op.stable_dt(), steps=steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * state.rho.nbytes


def test_integrate_rejects_unstable_dt_and_undershoot():
    # the step size is checked once per run, after the first record, and
    # positivity on every step, as step_kfp does; t_final exceeds ten times
    # the bound, so the too-large step is not cut down to t_final
    cfg = small_cfg(t_final=8.0)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    seen = []
    with pytest.raises(StabilityError):
        K.integrate(dataclasses.replace(cfg, dt=10.0 * op.stable_dt()),
                    on_record=lambda st, t, index: seen.append(index))
    assert seen == [0]
    rho, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
    rho[0, 0] = -1e-9
    with pytest.raises(PositivityError):
        K.integrate(cfg, state0=G.State(rho, 0.0))


def test_positivity_error_names_cell_update_and_time(tmp_path, capsys):
    rho = np.ones((6, 9))
    rho[3, 5] = -2e-12
    with pytest.raises(PositivityError, match=r"-2\.000e-12 below -1e-12 at cell "
                       r"\(q 3, p 5\) after dissipative update 4 of 8 of a 7-step call"):
        K._check_positive(rho, 4, 7)
    # the harmonic trap on the stationary_dmr grid undershoots in the momentum
    # tail (ROADMAP item 4); the run ends in exit 1 naming the cell and time
    text = (CONFIGS / "stationary_dmr.cfg").read_text()
    text = text.replace("potential.kind = cosine", "potential.kind = harmonic")
    text = text.replace("potential.amplitude = 1.0", "potential.stiffness = 1.0")
    text = re.sub(r"(?m)^grid\.lq = .*$", "grid.lq = auto", text)
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(text)
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert re.search(r"density undershoot -\d\.\d{3}e-\d+ below -1e-12 at cell "
                     r"\(q \d+, p \d+\) after dissipative update \d+ of \d+ of a "
                     r"\d+-step call, in the record interval from t = \d",
                     capsys.readouterr().err)


def test_stability_error_names_record_interval(monkeypatch):
    # a non-finite energy exchange planted after the second record ends the
    # next step in a StabilityError that names the interval's start time
    ops, times = [], []
    init = K.KfpOperator.__init__

    def capture(self, *args):
        init(self, *args)
        ops.append(self)

    def plant(st, t, index):
        times.append(t)
        if index == 1:
            ops[0].gh_face = np.full_like(ops[0].gh_face, np.inf)

    monkeypatch.setattr(K.KfpOperator, "__init__", capture)
    cfg = small_cfg(record_every=1)
    with np.errstate(all="ignore"), pytest.raises(StabilityError) as raised:
        K.integrate(cfg, on_record=plant)
    assert len(ops) == 1 and len(times) == 2 and times[1] > 0.0
    assert re.fullmatch(r"the dissipative energy exchange is (nan|-?inf); check gamma, "
                        r"theta and the grid, in the record interval from t = "
                        + re.escape(repr(times[1])), str(raised.value))


# ---------------------------------------------------------------------------
# the dissipative half step of the split

def _half_step(op, rho, h):
    out = np.empty(op.grid.shape)
    de = op._dissipate_into(rho, h, out)
    return out, de


def _assert_maxwellian_flux_vanishes(b_map, rinf):
    # the face flux of the Maxwellian through a flux map, within a few ulps
    # of the flux scale: the largest sum of |B_jk rho_k| over a face
    flux = rinf @ b_map.T
    scale = float((np.abs(rinf) @ np.abs(b_map).T).max())
    assert float(np.abs(flux).max()) <= 4.0 * np.finfo(float).eps * scale


def test_dissipative_half_step_keeps_maxwellian():
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
        rinf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
        for h in (0.5 * op.stable_dt(), 10.0 * op.stable_dt()):
            assert float(np.abs(rinf @ op._map(h).T - rinf).max()) <= 1e-14 * float(rinf.max())
            _assert_maxwellian_flux_vanishes(op._flux_map(h), rinf)
            rho, de = _half_step(op, rinf, h)
            assert float(np.abs(rho - rinf).max()) <= 1e-14 * float(rinf.max())
            assert abs(de) <= 1e-14


def test_dissipative_half_step_conserves_mass_and_energy(rng):
    cfg = small_cfg()
    grid, params, pot = cfg.grid, cfg.params, cfg.potential
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(grid, params, pot, variant)
        for h in (0.5 * op.stable_dt(), 10.0 * op.stable_dt()):
            state = make_state(rng, grid, params, pot, e=0.3)
            rho, de = _half_step(op, state.rho, h)
            assert abs(float(np.sum(rho - state.rho))) * grid.cell_volume <= 1e-14
            e_before = G.energy_functional(state, grid, params, pot)
            e_after = G.energy_functional(G.State(rho, state.e + de), grid, params, pot)
            assert abs(e_after - e_before) <= 1e-14 * abs(e_before)
            assert abs(de) > 1e-6         # the step did exchange energy


def test_pair_update_is_two_half_steps(rng):
    # D2 = D(h) D(h): one update of length 2h through W2 against two half steps
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
        for h in (0.5 * op.stable_dt(), 10.0 * op.stable_dt()):
            state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
            once, de_once = _half_step(op, state.rho, h)
            twice, de_twice = _half_step(op, once, h)
            merged = np.empty(cfg.grid.shape)
            de_merged = op._dissipate_into(state.rho, h, merged, pair=True)
            assert float(np.abs(merged - twice).max()) <= 1e-14 * float(twice.max())
            energy = G.energy_functional(state, cfg.grid, cfg.params, cfg.potential)
            assert abs(de_merged - (de_once + de_twice)) <= 1e-14 * abs(energy)


def test_flux_map_update_matches_the_per_row_flux(rng):
    # the update through B (B2) against the flux of W rho (W2 rho), row by
    # row with each row's own diff_face and rhat
    cfg = small_cfg()
    grid = cfg.grid
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(grid, cfg.params, cfg.potential, variant)
        lower, main, upper = op._tridiag
        a = np.diag(main) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        for h in (0.5 * op.stable_dt(), 10.0 * op.stable_dt()):
            w = op._map(h)
            for pair, w_map, k in ((False, w, h), (True, w + (0.5 * h) * w @ a @ w, 2.0 * h)):
                rho = make_state(rng, grid, cfg.params, cfg.potential).rho
                flux = k * op.dissipative_flux(rho @ w_map.T)
                ref = rho + G.face_div_p(grid, flux)
                ref_de = float(np.sum(op.gh_face * flux)) * grid.cell_volume
                out = np.empty(grid.shape)
                de = op._dissipate_into(rho, h, out, pair=pair)
                assert float(np.abs(out - ref).max()) <= 1e-13 * float(np.abs(ref).max())
                # the energy exchange against the size of the flux's two terms
                u = np.abs(rho @ w_map.T) / op.rhat
                terms = k * op.diff_face * (u[:, 1:] + u[:, :-1]) / grid.hp
                scale = float(np.sum(np.abs(op.gh_face) * terms)) * grid.cell_volume
                assert abs(de - ref_de) <= 1e-13 * scale


def test_pair_map_keeps_maxwellian():
    cfg = small_cfg()
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
        rinf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
        for h in (0.5 * op.stable_dt(), 10.0 * op.stable_dt()):
            _assert_maxwellian_flux_vanishes(op._flux_map(h, pair=True), rinf)
            rho = np.empty(cfg.grid.shape)
            de = op._dissipate_into(rinf, h, rho, pair=True)
            assert float(np.abs(rho - rinf).max()) <= 1e-14 * float(rinf.max())
            assert abs(de) <= 1e-14


def test_merged_steps_match_single_steps_and_conserve():
    # step_kfp(steps=50) against 50 single steps; mass and total energy of
    # the merged run hold to round-off
    cfg = small_cfg()
    grid, params, pot = cfg.grid, cfg.params, cfg.potential
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(grid, params, pot, variant)
        state0 = K.make_initial_state(cfg.init, grid, params, pot)
        dt = op.stable_dt()
        merged = K.step_kfp(state0, op, dt, steps=50)
        single = state0
        for _ in range(50):
            single = K.step_kfp(single, op, dt)
        e0 = G.energy_functional(state0, grid, params, pot)
        assert float(np.abs(merged.rho - single.rho).max()) <= 1e-13 * float(single.rho.max())
        assert abs(merged.e - single.e) <= 1e-13 * abs(e0)
        assert abs(float(np.sum(merged.rho)) * grid.cell_volume - 1.0) <= 1e-13
        assert abs(G.energy_functional(merged, grid, params, pot) - e0) <= 1e-13 * abs(e0)
        assert abs(merged.e) > 1e-3        # the run did exchange energy


@pytest.mark.parametrize("record_every, intervals", [(1, 7), (3, 3), (10, 1)])
def test_dissipative_update_count(record_every, intervals, monkeypatch):
    # n steps in r record intervals make n + r dissipative updates and n
    # positivity checks (one per merged update, one per interval end); with
    # a record every step no pair map is built
    cfg, _ = _variant_cfg(Variant.DH, record_every, steps=7)
    updates, pair_maps, checks = [], [], []
    dissipate, flux_map = K.KfpOperator._dissipate_into, K.KfpOperator._flux_map
    check_positive = K._check_positive
    monkeypatch.setattr(K.KfpOperator, "_dissipate_into",
                        lambda op, *a, **kw: updates.append(1) or dissipate(op, *a, **kw))
    monkeypatch.setattr(K.KfpOperator, "_flux_map",
                        lambda op, h, pair: pair and pair_maps.append(h) or flux_map(op, h, pair))
    monkeypatch.setattr(K, "_check_positive",
                        lambda rho, *at: checks.append(1) or check_positive(rho, *at))
    res = K.integrate(cfg)
    assert len(res.records) == intervals + 1
    assert len(updates) == 7 + intervals
    assert len(pair_maps) == 7 - intervals
    assert len(checks) == 7


def test_dissipative_map_is_dense_trbdf2():
    # the Thomas-built map against dense solves of the same TR-BDF2 stages
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, Variant.DMR)
    lower, main, upper = op._tridiag
    a = np.diag(main) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    d = 0.5 * K.TRBDF2_GAMMA
    b = 0.5 * (1.0 - d)
    eye = np.eye(cfg.grid.Np)
    for h in (0.01, 0.5 * op.stable_dt(), 5.0):
        y2 = np.linalg.solve(eye - d * h * a, eye + d * h * a)
        y3 = np.linalg.solve(eye - d * h * a, eye + b * h * a @ (eye + y2))
        assert float(np.abs(op._map(h) - (b * (eye + y2) + d * y3)).max()) <= 1e-13


def test_dissipative_substep_converges_at_second_order():
    cfg = small_cfg()
    grid = cfg.grid
    op = K.KfpOperator(grid, cfg.params, cfg.potential, Variant.DH)
    rinf, _ = maxwellian(grid, cfg.params, cfg.potential)
    rho0 = rinf * (1.0 + 0.5 * np.sin(grid.p_mesh) * np.cos(grid.q_mesh))

    def substeps(total, n):
        rho = rho0.copy()
        for _ in range(n):
            op._dissipate_into(rho, total / n, rho)
        return rho

    total = 0.2
    ref = substeps(total, 256)
    errs = [float(np.sum(np.abs(substeps(total, n) - ref))) * grid.cell_volume
            for n in (1, 2, 4, 8)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.8


def test_kfp_conserve_matches_fine_rk4_reference():
    # the committed kfp_conserve run against classical RK4 on the full
    # right-hand side at a quarter of the step RK4 was stable at
    cfg = load_config(CONFIGS / "kfp_conserve.cfg", "kfp")
    grid, params, pot = cfg.phase_grid, cfg.params, cfg.potential
    kcfg = K.KfpConfig(grid=grid, params=params, potential=pot, variant=cfg.variant,
                       dt=None, t_final=cfg.t_final, record_every=10**9, init=cfg.init)
    split = K.integrate(kcfg).state.rho
    op = K.KfpOperator(grid, params, pot, cfg.variant)
    diffusion_dt = 0.25 * grid.hp**2 / (params.gamma * params.theta * float(op.dface.max()))
    assert diffusion_dt < op.stable_dt()
    n_steps = math.ceil(cfg.t_final / (0.25 * diffusion_dt))
    dt = cfg.t_final / n_steps
    state = K.make_initial_state(cfg.init, grid, params, pot)
    for _ in range(n_steps):
        r0, e0 = state.rho, state.e
        k1, k1e = op.rhs(state)
        k2, k2e = op.rhs(G.State(r0 + 0.5 * dt * k1, e0 + 0.5 * dt * k1e))
        k3, k3e = op.rhs(G.State(r0 + 0.5 * dt * k2, e0 + 0.5 * dt * k2e))
        k4, k4e = op.rhs(G.State(r0 + dt * k3, e0 + dt * k3e))
        state = G.State(r0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                        e0 + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e))
    assert K.l1_distance(split, state.rho, grid) <= 1e-4


def test_dissipative_overflow_is_a_stability_error():
    cfg = small_cfg()
    params = dataclasses.replace(cfg.params, gamma=1e308)
    with np.errstate(all="ignore"), pytest.raises(StabilityError, match="not finite"):
        K.KfpOperator(cfg.grid, params, cfg.potential, Variant.DH)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, Variant.DH)
    with np.errstate(all="ignore"), pytest.raises(StabilityError, match="not finite"):
        op._map(1e308)


def test_split_step_loads_no_scipy_and_no_lapack(tmp_path):
    # the map is built by Thomas sweeps: no scipy import and no call into
    # numpy.linalg's LAPACK gufuncs, checked in a fresh interpreter
    script = tmp_path / "guard.py"
    script.write_text(textwrap.dedent("""
        import sys
        import numpy as np
        import numpy.linalg._linalg as linalg

        class NoLapack:
            def __getattr__(self, name):
                raise AssertionError(f"LAPACK entry point {name} used")

        linalg._umath_linalg = NoLapack()
        import relgeneric
        from relgeneric import kfp as K
        from relgeneric.grid import PhaseGrid
        from relgeneric.model import CosinePotential, ModelParams, Variant

        grid = PhaseGrid(Nq=16, Np=32, Lq=12.566, Pmax=34.0)
        params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
        pot = CosinePotential(amplitude=1.0, period=grid.Lq)
        op = K.KfpOperator(grid, params, pot, Variant.DH)
        state = K.make_initial_state(K.InitSpec(p0=0.5), grid, params, pot)
        K.step_kfp(state, op, op.stable_dt())
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        try:
            np.linalg.solve(np.eye(2), np.ones(2))
        except AssertionError:
            print("guarded")
    """))
    src = str(Path(K.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guarded"


def test_grid_fields_shared_and_read_only():
    cfg = small_cfg()
    grid, params, pot = cfg.grid, cfg.params, cfg.potential
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(grid, params, pot, variant)
        fields = grid_fields(grid, params, pot, variant)
        assert fields.gh_face is op.gh_face and fields.dface is op.dface
        assert fields.rhat is op.rhat and fields.rhat_face is op.rhat_face
        assert G.gradient_energy(None, grid, params, pot).xi is op.h_cells
        assert boltzmann_weight(grid, params, pot)[0] is op.rhat
        assert np.array_equal(op.gh_face, G.face_grad_p(grid, op.h_cells))
        for field in (op.h_cells, op.gh_face, op.dface, op.rhat, op.rhat_face):
            with pytest.raises(ValueError, match="read-only"):
                field[0, 0] = 1.0


# ---------------------------------------------------------------------------
# relative entropy and stationarity

def test_relative_entropy_properties(rng):
    cfg = small_cfg()
    grid = cfg.grid
    rinf, _ = maxwellian(grid, cfg.params, cfg.potential)
    assert K.relative_entropy(rinf, rinf, grid) == 0.0
    for _ in range(20):
        state = make_state(rng, grid, cfg.params, cfg.potential)
        assert K.relative_entropy(state.rho, rinf, grid) >= 0.0
    with pytest.raises(ValueError):
        K.relative_entropy(2.0 * rinf, rinf, grid)


def test_relative_entropy_zero_cells(rng):
    cfg = small_cfg()
    grid = cfg.grid
    rinf, _ = maxwellian(grid, cfg.params, cfg.potential)
    rho = rinf.copy()
    rho[0, 0] = 0.0
    rho /= float(np.sum(rho)) * grid.cell_volume
    assert math.isfinite(K.relative_entropy(rho, rinf, grid))


def test_initial_states_normalized():
    cfg = small_cfg()
    for init in (K.InitSpec("shifted-maxwellian", p0=0.7),
                 K.InitSpec("gaussian", p0=0.3, q0=-1.0, sigma_q=2.0, sigma_p=1.5),
                 K.InitSpec("uniform")):
        st = K.make_initial_state(init, cfg.grid, cfg.params, cfg.potential)
        assert float(np.sum(st.rho)) * cfg.grid.cell_volume == pytest.approx(1.0, abs=1e-12)
        assert st.e == 0.0
    with pytest.raises(ValueError):
        K.make_initial_state(K.InitSpec("noise"), cfg.grid, cfg.params, cfg.potential)


def test_stationarity_immediate_convergence():
    cfg = small_cfg(t_final=1.0)
    rinf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
    res = K.run_to_stationarity(cfg, l1_target=1e-3,
                                state0=G.State(rinf.copy(), 0.0))
    assert res.converged
    assert res.t_end == 0.0
    assert res.aux[0]["l1"] <= 1e-12


def test_stationarity_nonconvergence_signalled():
    cfg = small_cfg(t_final=0.01)
    with pytest.raises(NonConvergenceError):
        K.run_to_stationarity(cfg, l1_target=1e-9)


def test_shared_stationary_state_small():
    # both variants drift toward the same closed-form equilibrium
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0)
    a = params.theta * (-math.log(1e-14) + 1.0)
    pmax = math.sqrt((params.m * params.c + a / params.c) ** 2
                     - (params.m * params.c) ** 2) * 1.01
    lq = 4 * math.pi
    grid = PhaseGrid(Nq=24, Np=64, Lq=lq, Pmax=pmax)
    pot = CosinePotential(amplitude=1.0, period=lq)
    start = {}
    final = {}
    for variant in (Variant.DH, Variant.DMR):
        cfg = K.KfpConfig(grid=grid, params=params, potential=pot, variant=variant,
                          dt=None, t_final=4.0, record_every=20,
                          init=K.InitSpec(kind="shifted-maxwellian", p0=0.5))
        res = K.integrate(cfg)
        start[variant] = res.aux[0]["l1"]
        final[variant] = res.aux[-1]["l1"]
        rel = [r.relEnt for r in res.records]
        assert max(np.diff(rel).max(), 0.0) <= 1e-8
    for variant, l1 in final.items():
        assert l1 < 0.5 * start[variant]


def test_e_inf_matches_energy_budget():
    cfg = small_cfg(t_final=0.2)
    res = K.integrate(cfg)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    e0 = res.records[0].E
    expected = e0 - G.inner(cfg.grid, op.h_cells, res.rho_inf)
    assert res.e_inf == pytest.approx(expected, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(t_final=-1.0)
    with pytest.raises(ValueError):
        small_cfg(record_every=0)
    # at c = INFINITE either variant is the Kramers equation
    for variant in Variant:
        small_cfg(variant, params=ModelParams(c=INFINITE),
                  grid=PhaseGrid(Nq=16, Np=32, Lq=34.0, Pmax=34.0))


def test_newtonian_limit_harmonic_64x64():
    # DH at c=1e3 against the classical run, harmonic trap, T=1: max-norm
    # density difference stays below 1e-3
    base = ModelParams(m=1.0, c=1000.0, gamma=0.5, theta=1.0)
    classical = ModelParams(m=1.0, c=INFINITE, gamma=0.5, theta=1.0)
    pot = HarmonicPotential(stiffness=0.25)
    a = base.theta * (-math.log(1e-14) + 1.0)
    lq = 2.0 * math.sqrt(2.0 * a / pot.stiffness) * 1.01
    grid = PhaseGrid(Nq=64, Np=64, Lq=lq, Pmax=8.4)
    state0 = K.make_initial_state(K.InitSpec(kind="shifted-maxwellian", p0=0.5),
                                  grid, classical, pot)
    ops = [K.KfpOperator(grid, base, pot, Variant.DH),
           K.KfpOperator(grid, classical, pot, Variant.DH)]
    dt = min(op.transient_dt() for op in ops)
    finals = []
    for op in ops:
        state = G.State(state0.rho.copy(), 0.0)
        t = 0.0
        while t < 1.0 - 1e-12:
            step = min(dt, 1.0 - t)
            state = K.step_kfp(state, op, step)
            t += step
        finals.append(state.rho)
    assert float(np.abs(finals[0] - finals[1]).max()) <= 1e-3


LIMIT_KFP_SMALL = ("experiment = limit-study\nlimit.kind = kfp\nlimit.c_values = 10, 100\n"
                   "model.gamma = 0.5\ngrid.nq = 16\ngrid.np = 16\ngrid.pmax = 8.8\n"
                   "solver.t_final = 0.05\n")


def test_kinetic_limit_study_sweeps_the_configured_variant(monkeypatch, tmp_path):
    # every member steps with model.variant, the classical baseline at c = INFINITE
    built = []

    def recording_operator(grid, params, potential, variant):
        built.append((params.c, variant))
        return K.KfpOperator(grid, params, potential, variant)

    monkeypatch.setattr(L, "KfpOperator", recording_operator)
    deviations = {}
    for variant in (Variant.DH, Variant.DMR):
        built.clear()
        cfg = parse_config(LIMIT_KFP_SMALL + f"model.variant = {variant.value}\n",
                           "limit-study")
        deviations[variant] = [d for _, d in L.run_limit_study(cfg).deviations]
        assert built == [(10.0, variant), (100.0, variant), (INFINITE, variant)]
    assert deviations[Variant.DH] != deviations[Variant.DMR]
    # 'classical' is no variant: a named config error
    path = tmp_path / "classical.cfg"
    path.write_text(LIMIT_KFP_SMALL + "model.variant = classical\n")
    assert main(["limit-study", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_variants_coincide_at_infinite_c():
    # c = INFINITE turns DH and DMR into the one Kramers equation, bit for bit
    params, pmax = _kinetic_params(INFINITE)
    grid = PhaseGrid(Nq=16, Np=32, Lq=4 * math.pi, Pmax=pmax)
    pot = CosinePotential(amplitude=1.0, period=grid.Lq)
    dh, dmr = (grid_fields(grid, params, pot, v) for v in (Variant.DH, Variant.DMR))
    for a, b in zip(dh, dmr):
        assert np.array_equal(_bits(a), _bits(b))
    assert np.all(dh.dface == 1.0)
    runs = [K.integrate(small_cfg(v, t_final=0.3, record_every=2, params=params, grid=grid,
                                  potential=pot)) for v in Variant]
    assert len(runs[0].records) > 2
    assert np.array_equal(_bits(runs[0].state.rho), _bits(runs[1].state.rho))
    for rec_dh, rec_dmr, aux_dh, aux_dmr in zip(runs[0].records, runs[1].records,
                                                runs[0].aux, runs[1].aux, strict=True):
        assert np.array_equal(_bits(dataclasses.astuple(rec_dh)),
                              _bits(dataclasses.astuple(rec_dmr)))
        assert np.array_equal(_bits(list(aux_dh.values())), _bits(list(aux_dmr.values())))


def test_stationary_runs_at_infinite_c_with_the_default_variant(tmp_path):
    path = tmp_path / "kramers.cfg"
    path.write_text("experiment = stationary\nmodel.c = inf\npotential.kind = cosine\n"
                    "grid.nq = 16\ngrid.np = 32\nsolver.t_final = 20\ninit.p0 = 0.5\n"
                    "stationary.l1_target = 0.05\n")
    assert main(["stationary", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()


@pytest.mark.parametrize("variant", ["dh", "dmr"])
def test_cli_runs_every_variant_from_mildly_relativistic_to_classical(variant, tmp_path,
                                                                     capsys):
    # a few steps at each c end in exit 0, or in a named error with exit 1
    # or 2, never in an uncaught exception; at c = inf either variant runs
    for c in ("0.5", "1e3", "1e7", "inf"):
        path = tmp_path / f"{c}.cfg"
        path.write_text(f"model.variant = {variant}\nmodel.c = {c}\ngrid.nq = 16\n"
                        "grid.np = 32\nsolver.t_final = 0.05\nsolver.record_every = 1\n")
        code = main(["kfp", "--config", str(path), "--out", str(tmp_path / c)])
        err = capsys.readouterr().err
        assert code == 0 or (code in (1, 2) and err.startswith(("run failed: ",
                                                                "configuration error: ")))
        assert code == 0 or c != "inf"


EXTREME_KFP = (st.sampled_from(["1e-300", "1e-12", "0.05", "1", "20", "1e12", "1e308"])
               | st.floats(1e-6, 1e6).map(repr))


@st.composite
def extreme_kfp_configs(draw):
    """A 16x32 kfp config with extreme gamma, theta and c, either variant and
    either potential; the grid extents are auto."""
    c = draw(EXTREME_KFP | st.just("inf"))
    return (f"model.variant = {draw(st.sampled_from(['dh', 'dmr']))}\n"
            f"potential.kind = {draw(st.sampled_from(['cosine', 'harmonic']))}\n"
            f"model.gamma = {draw(EXTREME_KFP)}\nmodel.theta = {draw(EXTREME_KFP)}\n"
            f"model.c = {c}\ngrid.nq = 16\ngrid.np = 32\nsolver.record_every = 2\n")


@settings(max_examples=100, deadline=None)
@given(text=extreme_kfp_configs())
def test_fuzzed_kfp_runs_end_in_named_outcomes(tmp_path_factory, text):
    # a run of a few steps exits 0 with a finite timeseries.csv, 1 with a
    # named solver error or failed check, or 2 with a config error; never a
    # traceback.  t_final is four transient steps of the operator the run
    # builds.  numpy warnings are not gated: some extreme configs still raise
    # them on the way to a named error.
    base = tmp_path_factory.mktemp("fuzz")
    path = base / "fuzzed.cfg"
    path.write_text(text, encoding="utf-8")
    with np.errstate(all="ignore"):
        try:
            cfg = load_config(str(path), "kfp")
            op = K.KfpOperator(cfg.phase_grid, cfg.params, cfg.potential, cfg.variant)
            path.write_text(text + f"solver.t_final = {4.0 * op.transient_dt()!r}\n",
                            encoding="utf-8")
        except (ConfigError, StabilityError, ValueError):
            pass          # the run below ends in the same error
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["kfp", "--config", str(path), "--out", str(base / "out")])
    printed = out.getvalue()
    assert code in (0, 1, 2), text
    if code == 2:
        assert printed.startswith("configuration error: "), (text, printed)
    elif code == 1:
        assert printed.startswith("run failed: ") or "[FAIL] " in printed, (text, printed)
    else:
        records = read_timeseries_csv(base / "out" / "timeseries.csv")
        values = [v for rec in records for v in dataclasses.astuple(rec) if v is not None]
        assert all(math.isfinite(v) for v in values), (text, printed)


def test_stationary_run_preserves_energy_budget():
    # final e + int H rho returns the initial total energy
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0)
    lq = 4 * math.pi
    a = params.theta * (-math.log(1e-14) + 1.0)
    pmax = math.sqrt((params.m * params.c + a / params.c) ** 2
                     - (params.m * params.c) ** 2) * 1.01
    grid = PhaseGrid(Nq=24, Np=64, Lq=lq, Pmax=pmax)
    pot = CosinePotential(amplitude=1.0, period=lq)
    cfg = K.KfpConfig(grid=grid, params=params, potential=pot, variant=Variant.DH,
                      dt=None, t_final=2.0, record_every=50,
                      init=K.InitSpec(kind="shifted-maxwellian", p0=0.5))
    res = K.integrate(cfg)
    e0 = res.records[0].E
    assert abs(res.records[-1].E - e0) / abs(e0) <= 1e-6


def test_variants_differ_off_equilibrium(rng):
    # DH and DMR share the kernel but not the operator: tendencies differ on
    # non-equilibrium states
    cfg = small_cfg()
    state = make_state(rng, cfg.grid, cfg.params, cfg.potential)
    op_dh = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, Variant.DH)
    op_dmr = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, Variant.DMR)
    d_dh = op_dh.dissipative_tendency(state.rho)
    d_dmr = op_dmr.dissipative_tendency(state.rho)
    assert float(np.abs(d_dh - d_dmr).max()) > 1e-6 * float(np.abs(d_dh).max())
