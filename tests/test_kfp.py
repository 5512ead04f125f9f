import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relgeneric import generic as G
from relgeneric import kfp as K
from relgeneric import limits as L
from relgeneric import verify as V
from relgeneric.cli import main
from relgeneric.config import ConfigError, load_config, parse_config
from relgeneric.errors import PositivityError, StabilityError
from relgeneric.grid import PhaseGrid, time_steps
from relgeneric.model import (CosinePotential, HarmonicPotential, INFINITE,
                              ModelParams, Variant, ZeroPotential, grid_fields,
                              maxwellian, mobility_drift, mobility_drift_divergence,
                              velocity)
from conftest import EXTREME, make_state, run_to_named_outcome

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
        tend = G.face_div_p(cfg.grid, op.dissipative_flux(rinf))
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
    expected = drift_term - params.gamma * params.theta / params.m
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
            bound = cfg.params.gamma * cfg.params.theta / cfg.params.m
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
    assert _radius(V.split_step_matrix(op, op.stable_dt())) <= 1.0 + 1e-12


def test_split_step_is_unstable_at_twice_stable_dt():
    # the stability test above detects a bound set too high: twice the
    # 6-stage step's bound, four times RK4's
    op = _stability_op(12, 24, Variant.DMR, 1.0, "cosine", 0.05)
    assert _radius(V.split_step_matrix(op, 2.0 * op.stable_dt())) > 1.5


def _transport_matrix(op):
    return V.dense_matrix(lambda unit: op.transport_tendency(unit.reshape(op.grid.shape)).ravel(),
                          op.grid.Nq * op.grid.Np)


def _swept_split_step(op, transport, dt):
    """The split step D(dt/2) p(dt T) D(dt/2), p(dt T) by matrix Horner over the
    stepper's scales and D from one q-row's update (every row has the same)."""
    eye = np.eye(transport.shape[0])
    poly = transport
    for scale in K._horner_scales(op, dt):
        poly = transport @ (eye + scale * poly)
    poly = eye + dt * poly
    cells, out = np.zeros(op.grid.shape), np.empty(op.grid.shape)

    def row_column(unit):           # a unit vector in q-row 0
        cells[0] = unit
        op._dissipate_into(cells, 0.5 * dt, out)
        return out[0]
    half = np.kron(np.eye(op.grid.Nq), V.dense_matrix(row_column, op.grid.Np))
    return half @ poly @ half


# the sweep's steps in units of RK4's bound, up to the 6-stage step's bound
# LONG_REACH = 2: dense next to RK4's bound, where the one-sided momentum edges
# give modes of Re(lambda dt) up to 0.03 at Im(lambda dt) ~ 1.7 that RK4 damps by
# 8% a step and the 6-stage step by 26%
SWEEP = (1.0001, 1.0005, 1.001, 1.005, 1.02, 1.05, 1.1, 1.2, 1.3, 1.4,
         1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
# the 6-stage polynomial's imaginary reach: |p(iy)| <= 1 for |y| <= REACH
REACH = 4.07


def test_six_stage_polynomial_reaches_along_the_imaginary_axis():
    # test_six_stage_step_matches_its_stage_form ties the stepper to these coefficients
    y = np.linspace(0.0, REACH + 0.01, 400001)
    p = np.abs(np.polynomial.polynomial.polyval(1j * y, (1.0,) + K.LONG_COEFFICIENTS))
    assert float(p[y <= REACH].max()) <= 1.0 + 1e-12 < float(p[-1])


@pytest.mark.parametrize("shape,variant,c,potential,gamma", STABILITY_CASES)
def test_split_step_is_stable_from_the_rk4_bound_to_stable_dt(shape, variant, c,
                                                                 potential, gamma):
    op = _stability_op(*shape, variant, c, potential, gamma)
    assert op.stable_dt() == K.LONG_REACH * op._rk4_dt
    transport = _transport_matrix(op)
    # the transport's spectrum at the step lies inside the polynomial's reach
    assert op.stable_dt() * _radius(transport) <= REACH
    assert SWEEP[-1] == K.LONG_REACH
    for factor in SWEEP:
        dt = factor * op._rk4_dt
        assert len(K._horner_scales(op, dt)) == 5
        assert _radius(_swept_split_step(op, transport, dt)) <= 1.0 + 1e-12, factor


def test_auto_step_is_the_bound_for_stationarity_and_transient_otherwise(monkeypatch):
    cfg = small_cfg(record_every=1)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    cfg = dataclasses.replace(cfg, t_final=3.5 * op.stable_dt())
    dts = []
    step = K.step_kfp
    monkeypatch.setattr(K, "step_kfp", lambda st, op, dt, steps=1, stop=None:
                        dts.append(dt) or step(st, op, dt, steps=steps, stop=stop))
    K.integrate(cfg)
    n_steps, step_dt = time_steps(cfg.t_final, op.transient_dt())
    assert n_steps == 30 and dts == [step_dt] * n_steps
    dts.clear()
    # 0.39 of the initial L1: not met before the last of the four steps
    rho0 = K.make_initial_state(cfg.init, cfg.grid, cfg.params, cfg.potential).rho
    l1_0 = K.l1_distance(rho0, maxwellian(cfg.grid, cfg.params, cfg.potential)[0], cfg.grid)
    res = K.integrate(cfg, l1_stop=0.39 * l1_0)
    assert dts == [time_steps(cfg.t_final, op.stable_dt())[1]] * 4
    assert len(K._horner_scales(op, dts[0])) == 5       # the 6-stage step
    assert res.records[-1].t == cfg.t_final


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
    # every record equals its recomputation from the public
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
    for rec, (st, t) in zip(res.records, seen):
        drho, de = op.rhs(st)
        v_s = G.gradient_entropy(st, grid, params)
        deg_l, deg_m = G.Brackets(st, grid, params, pot, variant).degeneracy_residuals()
        assert rec == G.DiagnosticsRecord(
            t=t, E=G.energy_functional(st, grid, params, pot),
            S=G.entropy_functional(st, grid, params),
            mass=float(np.sum(st.rho)) * grid.cell_volume,
            dSdt=G.inner(grid, v_s.xi, drho) + v_s.r * de, degL=deg_l, degM=deg_m,
            relEnt=K.relative_entropy(st.rho, rho_inf, grid), e=st.e,
            l1=K.l1_distance(st.rho, rho_inf, grid), dHrho_dt=-de)
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
    # every record value of a run at the record-bound shape has the
    # bits of its recomputation from the public functions
    cfg, op = _record_shape_cfg(4)
    grid, params, pot, variant = cfg.grid, cfg.params, cfg.potential, cfg.variant
    seen = []
    res = K.integrate(cfg, on_record=lambda st, t, index: seen.append((st, t)))
    rho_inf, _ = maxwellian(grid, params, pot)
    assert len(seen) == len(res.records) == 5
    for rec, (st, t) in zip(res.records, seen):
        drho, de = op.rhs(st)
        v_s = G.gradient_entropy(st, grid, params)
        deg_l, deg_m = G.Brackets(st, grid, params, pot, variant).degeneracy_residuals()
        ref = G.DiagnosticsRecord(
            t=t, E=G.energy_functional(st, grid, params, pot),
            S=G.entropy_functional(st, grid, params),
            mass=float(np.sum(st.rho)) * grid.cell_volume,
            dSdt=G.inner(grid, v_s.xi, drho) + v_s.r * de, degL=deg_l, degM=deg_m,
            relEnt=K.relative_entropy(st.rho, rho_inf, grid), e=st.e,
            l1=K.l1_distance(st.rho, rho_inf, grid), dHrho_dt=-de)
        assert np.array_equal(_bits(dataclasses.astuple(rec)), _bits(dataclasses.astuple(ref)))


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
    # the pre-scaled kernel against generic.grad_q (the skew-adjoint div_q)
    # and div_p on the unscaled velocities; the step bounds still come from
    # the unscaled speeds
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    grid, h = cfg.grid, op.h_cells
    for _ in range(3):
        rho = make_state(rng, grid, cfg.params, cfg.potential).rho
        q_part = G.grad_q(grid, rho * -G.grad_p(grid, h))
        p_part = G.div_p(grid, rho * G.grad_q(grid, h))
        scale = max(float(np.abs(q_part).max()), float(np.abs(p_part).max()))
        got = op.transport_tendency(rho)
        assert float(np.abs(got - (q_part + p_part)).max()) <= 1e-13 * scale
    vq, vp = float(np.abs(G.grad_p(grid, h)).max()), float(np.abs(G.grad_q(grid, h)).max())
    assert op._rk4_dt == 2.0 / (vq / grid.hq + vp / grid.hp)
    assert op.stable_dt() == K.LONG_REACH * op._rk4_dt
    assert op.transient_dt() == min(0.4 * grid.hq / vq, 0.4 * grid.hp / vp)


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_horner_rk4_matches_the_stage_form(variant, c, rng):
    # the transport is linear and autonomous, so classical RK4's four stages
    # give the degree-4 Taylor polynomial the Horner form evaluates
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    transport, dt = op.transport_tendency, op._rk4_dt
    assert len(K._horner_scales(op, dt)) == 3
    for _ in range(3):
        r0 = make_state(rng, cfg.grid, cfg.params, cfg.potential).rho
        k1 = transport(r0)
        k2 = transport(r0 + 0.5 * dt * k1)
        k3 = transport(r0 + 0.5 * dt * k2)
        k4 = transport(r0 + dt * k3)
        stages = r0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        horner = np.empty(cfg.grid.shape)
        K._transport_step(r0, op, dt, horner)
        assert float(np.abs(horner - stages).max()) <= 1e-14 * float(np.abs(r0).max())


def _taylor(transport, r0, dt, coefficients):
    """r0 + sum_k coefficients[k-1] (dt T)^k r0, one power of T at a time."""
    total, power = r0.copy(), r0
    for coefficient in coefficients:
        power = dt * transport(power)
        total += coefficient * power
    return total


@pytest.mark.parametrize("variant,c", KINETIC_CASES)
def test_six_stage_step_matches_its_stage_form(variant, c, rng):
    # above RK4's bound the Horner loop evaluates 1 + z + z^2/2 + a3 z^3 + ... + a6 z^6
    cfg, op = _variant_cfg(variant, record_every=1, steps=1, c=c)
    for dt in (1.001 * op._rk4_dt, op.stable_dt()):
        assert len(K._horner_scales(op, dt)) == 5
        r0 = make_state(rng, cfg.grid, cfg.params, cfg.potential).rho
        horner = np.empty(cfg.grid.shape)
        K._transport_step(r0, op, dt, horner)
        expected = _taylor(op.transport_tendency, r0, dt, K.LONG_COEFFICIENTS)
        assert float(np.abs(horner - expected).max()) <= 1e-14 * float(np.abs(r0).max())


def test_six_stage_step_is_second_order(rng):
    # the local error against exp(dt T) r0 (its Taylor series to z^30) falls
    # 2^3-fold with each halving of dt; RK4's bound is set to 0 so that every
    # step takes the 6-stage polynomial
    cfg, op = _variant_cfg(Variant.DMR, record_every=1, steps=1)
    r0 = make_state(rng, cfg.grid, cfg.params, cfg.potential).rho
    base, op._rk4_dt = op._rk4_dt, 0.0
    errors = []
    for dt in (base / 4.0, base / 8.0, base / 16.0):
        step = np.empty(cfg.grid.shape)
        K._transport_step(r0, op, dt, step)
        exact = _taylor(op.transport_tendency, r0, dt, 1.0 / np.cumprod(np.arange(1.0, 31.0)))
        errors.append(float(np.abs(step - exact).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert 7.75 <= coarse / fine <= 8.25


@pytest.mark.parametrize("l1_stop, stages", [(None, 4), (0.0, 6)])
def test_integrate_counts_its_transport_evaluations(l1_stop, stages, monkeypatch):
    # a transient run takes RK4 steps and a stationary one 6-stage steps;
    # each record evaluates the transport once more (its rhs)
    cfg = small_cfg(t_final=4.0, record_every=3)
    transport, calls = K.KfpOperator._transport_into, []

    def counted(op, *args):
        calls.append(1)
        return transport(op, *args)

    monkeypatch.setattr(K.KfpOperator, "_transport_into", counted)
    res = K.integrate(cfg, l1_stop=l1_stop)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, cfg.variant)
    dt = op.stable_dt() if l1_stop is not None else op.transient_dt()
    assert res.steps == time_steps(cfg.t_final, dt)[0] > 3
    assert res.evaluations == stages * res.steps
    assert len(calls) == res.evaluations + len(res.records)


def _stop_case(variant):
    """A single-interval stationary run on the small grid at the stability
    bound, its operator, rho_inf, initial state and step."""
    cfg = small_cfg(variant, t_final=40.0, record_every=1000)
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, variant)
    rho_inf, _ = maxwellian(cfg.grid, cfg.params, cfg.potential)
    state0 = K.make_initial_state(cfg.init, cfg.grid, cfg.params, cfg.potential)
    return cfg, op, rho_inf, state0, time_steps(cfg.t_final, op.stable_dt())[1]


@pytest.mark.parametrize("variant", list(Variant))
def test_stationary_stop_is_the_first_step_within_the_target(variant):
    # against an independent loop of k-step calls without a stop: the run
    # ends at the first k whose end state meets the target, inside its one
    # record interval, with the k-step call's state bit for bit, recorded at
    # k dt; a run with a record every k steps ends in the same bits
    cfg, op, rho_inf, state0, dt = _stop_case(variant)
    for target in (0.15, 0.07, 0.03):
        k, ref = next((k, ref) for k in range(1, 40)
                      if K.l1_distance((ref := K.step_kfp(state0, op, dt, steps=k)).rho,
                                       rho_inf, cfg.grid) <= target)
        res = K.integrate(cfg, l1_stop=target)
        assert res.converged and res.steps == k and 1 < k < cfg.record_every
        assert len(res.records) == 2 and res.records[-1].t == k * dt
        assert res.records[-1].l1 <= target
        assert np.array_equal(_bits(res.state.rho), _bits(ref.rho))
        assert _bits(res.state.e) == _bits(ref.e)
        cadence = K.integrate(dataclasses.replace(cfg, record_every=k), l1_stop=target)
        assert cadence.steps == k and np.array_equal(_bits(cadence.state.rho),
                                                     _bits(res.state.rho))
        assert np.array_equal(_bits(dataclasses.astuple(cadence.records[-1])),
                              _bits(dataclasses.astuple(res.records[-1])))


@pytest.mark.parametrize("record_every", [1, 3, 5, 1000])
def test_stationary_stop_state_always_meets_the_target(record_every):
    # whatever the cadence, the run ends at the same first step within the
    # target and its last record meets it
    cfg, *_ = _stop_case(Variant.DMR)
    cfg = dataclasses.replace(cfg, record_every=record_every)
    for target in (0.2, 0.1, 0.05, 0.03):
        res = K.integrate(cfg, l1_stop=target)
        assert res.converged and res.records[-1].l1 <= target
        rho_inf = maxwellian(cfg.grid, cfg.params, cfg.potential)[0]
        assert K.l1_distance(res.state.rho, rho_inf, cfg.grid) == res.records[-1].l1
        assert res.steps == {0.2: 2, 0.1: 6, 0.05: 10, 0.03: 12}[target]


def test_stationary_stop_counts_its_probe_updates(monkeypatch):
    # steps + 1 dissipative updates plus one per probe; a probe (a single
    # update) follows exactly the merged updates whose state is within the
    # target, and the last probe is the stop: at 0.03 the merged states of
    # steps 11 and 12 are within it, the end state of 11 not
    cfg, op, rho_inf, state0, dt = _stop_case(Variant.DMR)
    calls, dissipate = [], K.KfpOperator._dissipate_into

    def counted(op, rho, h, out, pair=False):
        de = dissipate(op, rho, h, out, pair)
        calls.append((pair, K.l1_distance(out, rho_inf, op.grid)))
        return de

    monkeypatch.setattr(K.KfpOperator, "_dissipate_into", counted)
    res = K.integrate(cfg, l1_stop=0.03)
    merged = [l1 for pair, l1 in calls if pair]
    probes = [l1 for pair, l1 in calls[1:] if not pair]
    assert res.steps == 12 and len(merged) == res.steps
    assert len(probes) == sum(l1 <= 0.03 for l1 in merged) == 2
    assert len(calls) == res.steps + 1 + len(probes)
    assert [l1 <= 0.03 for l1 in probes] == [False, True]
    for (pair, l1), after in zip(calls, calls[1:]):
        assert (not after[0]) == (pair and l1 <= 0.03)
    assert probes[-1] == res.records[-1].l1


def test_stationary_probes_leave_the_steps_unchanged():
    # a call whose probes find no end state within the target, and a run
    # that ends at t_final first, are those without a stop bit for bit; the
    # DMR merged state of step 11 is within 0.029, its end state and that of
    # step 12 not
    cfg, op, rho_inf, state0, dt = _stop_case(Variant.DMR)
    state, taken = K.step_kfp(state0, op, dt, steps=12, stop=(rho_inf, 0.029))
    ref = K.step_kfp(state0, op, dt, steps=12)
    assert taken == 12
    assert np.array_equal(_bits(state.rho), _bits(ref.rho)) and _bits(state.e) == _bits(ref.e)
    cfg = dataclasses.replace(cfg, dt=dt, t_final=12 * dt, record_every=4)
    stopping, plain = K.integrate(cfg, l1_stop=0.029), K.integrate(cfg)
    assert not stopping.converged and stopping.steps == plain.steps == 12
    assert np.array_equal(_bits(stopping.state.rho), _bits(plain.state.rho))
    assert [dataclasses.astuple(r) for r in stopping.records] == \
        [dataclasses.astuple(r) for r in plain.records]


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
                     op.dissipative_flux(state.rho),
                     G.face_div_p(op.grid, op.dissipative_flux(state.rho)),
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


def _row_operator(op):
    """The dissipative operator A on the maps' q-row, column by column from
    the right-hand side's own flux: face_div_p(dissipative_flux(rho))."""
    cells = np.zeros(op.grid.shape)

    def column(unit):
        cells[op._row] = unit
        return G.face_div_p(op.grid, op.dissipative_flux(cells))[op._row]
    return V.dense_matrix(column, op.grid.Np)


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
        a = _row_operator(op)
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
    # step_kfp(steps=50) against 50 single steps at the bound, 6-stage steps;
    # mass and total energy of the merged run hold to round-off
    cfg = small_cfg()
    grid, params, pot = cfg.grid, cfg.params, cfg.potential
    for variant in (Variant.DH, Variant.DMR):
        op = K.KfpOperator(grid, params, pot, variant)
        state0 = K.make_initial_state(cfg.init, grid, params, pot)
        dt = op.stable_dt()
        assert len(K._horner_scales(op, dt)) == 5
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
    # the map of two symmetric solves against dense solves of the TR-BDF2
    # stages on the rhs flux's own operator
    cfg = small_cfg()
    op = K.KfpOperator(cfg.grid, cfg.params, cfg.potential, Variant.DMR)
    a = _row_operator(op)
    d = 0.5 * K.TRBDF2_GAMMA
    b = 0.5 * (1.0 - d)
    eye = np.eye(cfg.grid.Np)
    for h in (0.01, 0.5 * op.stable_dt(), 5.0):
        y2 = np.linalg.solve(eye - d * h * a, eye + d * h * a)
        y3 = np.linalg.solve(eye - d * h * a, eye + b * h * a @ (eye + y2))
        assert float(np.abs(op._map(h) - (b * (eye + y2) + d * y3)).max()) <= 1e-13


def _overflow_op(lq=4 * math.pi):
    """The model of verify's overflow test on 12 x 24 cells (DH), where h |A| is
    about 2.6e22 at RK4's bound."""
    grid = PhaseGrid(Nq=12, Np=24, Lq=lq, Pmax=1e-20)
    return K.KfpOperator(grid, ModelParams(m=1e-300, gamma=1e-300), ZeroPotential(), Variant.DH)


def test_dissipative_half_step_contracts_at_huge_h_times_a():
    # the half step stays a contraction to round-off, which a map that adds I
    # to Y2 ~ -I cannot (its radius reads 4.04 here), nor one whose A has a
    # rounded diagonal (1 + 1.7e-7)
    op = _overflow_op()
    grid, h = op.grid, 0.5 * op._rk4_dt
    assert h * float(np.abs(np.diag(_row_operator(op))).max()) > 1e22
    out = np.empty(grid.shape)

    def half_step(unit):
        op._dissipate_into(unit.reshape(grid.shape), h, out)
        return out.ravel()
    assert _radius(V.dense_matrix(half_step, grid.Nq * grid.Np)) <= 1.0 + 1e-12


@pytest.mark.parametrize("lq", [4 * math.pi, 12.566])
def test_dissipative_map_keeps_maxwellian_at_huge_h_times_a(lq):
    # W r = r for the Maxwellian row r at h |A| ~ 2.6e22, with no floating-point
    # exception: a map from A's rounded diagonal took r to about -3e-5 of itself
    # (4 pi), and its pivots cancelled to exactly 0 (12.566)
    op = _overflow_op(lq)
    r = op.rhat[op._row]
    with np.errstate(all="raise"):
        w = op._map(0.5 * op._rk4_dt)
    assert np.all(np.isfinite(w))
    assert float(np.abs(w @ r - r).max()) <= 1e-15 * float(r.max())


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
        op._map(math.inf)
    # at h = 1e308 the map is the L-stable limit: finite, and it keeps the
    # Maxwellian row and the mass
    r = op.rhat[op._row]
    w = op._map(1e308)
    assert float(np.abs(w @ r - r).max()) <= 2e-15 * float(r.max())
    assert float(np.abs(w.sum(axis=0) - 1.0).max()) <= 7e-16


def test_split_step_loads_no_scipy_and_no_lapack(tmp_path):
    # the map is built by tridiagonal solves in numpy: no scipy import and no
    # call into numpy.linalg's LAPACK gufuncs, checked in a fresh interpreter
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
        assert grid_fields(grid, params, pot, None).rhat is op.rhat
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


def test_the_maxwellian_is_checked_once_per_run():
    # RecordPass checks its rho_inf's mass and positivity when it is built,
    # not at every record; the public relative_entropy keeps its own checks
    cfg = small_cfg()
    grid = cfg.grid
    op = K.KfpOperator(grid, cfg.params, cfg.potential, cfg.variant)
    rinf, _ = maxwellian(grid, cfg.params, cfg.potential)
    with pytest.raises(ValueError, match="rho_inf must have discrete mass 1"):
        K.RecordPass(op, 2.0 * rinf)
    gap = rinf.copy()
    gap[0, 0] = 0.0
    gap /= float(np.sum(gap)) * grid.cell_volume
    with pytest.raises(ValueError, match="rho_inf must be positive on every cell"):
        K.RecordPass(op, gap)
    with pytest.raises(ValueError, match="rho_inf must be positive wherever rho is"):
        K.relative_entropy(rinf, gap, grid)


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
    res = K.integrate(cfg, state0=G.State(rinf.copy(), 0.0), l1_stop=1e-3)
    assert res.converged
    assert res.records[-1].t == 0.0
    assert res.records[0].l1 <= 1e-12


def test_stationarity_nonconvergence_signalled():
    # a run that misses its target returns at t_final, outside it and not converged
    cfg = small_cfg(t_final=0.01)
    res = K.integrate(cfg, l1_stop=1e-9)
    assert not res.converged
    assert res.records[-1].t == cfg.t_final and res.records[-1].l1 > 1e-9


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
        start[variant] = res.records[0].l1
        final[variant] = res.records[-1].l1
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
        deviations[variant] = [d for _, d in L.run_limit_study(cfg)]
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
    for rec_dh, rec_dmr in zip(runs[0].records, runs[1].records, strict=True):
        assert np.array_equal(_bits(dataclasses.astuple(rec_dh)),
                              _bits(dataclasses.astuple(rec_dmr)))


def test_stationary_runs_at_infinite_c_with_the_default_variant(tmp_path, capsys):
    # the summary line counts the run's split steps, 6-stage ones at the bound
    path = tmp_path / "kramers.cfg"
    path.write_text("experiment = stationary\nmodel.c = inf\npotential.kind = cosine\n"
                    "grid.nq = 16\ngrid.np = 32\nsolver.t_final = 20\ninit.p0 = 0.5\n"
                    "stationary.l1_target = 0.05\n")
    assert main(["stationary", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()
    steps, evaluations = map(int, re.search(r"steps (\d+), transport evaluations (\d+)\)",
                                            capsys.readouterr().out).groups())
    assert steps > 0 and evaluations == 6 * steps


def test_summary_lines_name_the_step_and_its_bound(tmp_path, capsys):
    # stationary runs step at stable_dt, kfp runs at transient_dt, and an
    # explicit solver.dt is named as such; the result holds the step taken
    base = ("model.c = 2\npotential.kind = cosine\ngrid.nq = 16\ngrid.np = 32\n"
            "solver.t_final = 2\ninit.p0 = 0.5\n")
    path = tmp_path / "run.cfg"
    path.write_text(base)
    cfg = load_config(path, "kfp")
    op = K.KfpOperator(cfg.phase_grid, cfg.params, cfg.potential, cfg.variant)
    for experiment, extra, source, dt in (
            ("stationary", "stationary.l1_target = 0.15\n", "stable_dt", op.stable_dt()),
            ("kfp", "", "transient_dt", op.transient_dt()),
            ("kfp", "solver.dt = 0.05\n", "solver.dt", 0.05)):
        path.write_text(f"experiment = {experiment}\n" + base + extra)
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        step = time_steps(2.0, dt)[1]
        assert f"; dt {step:.6g} from {source}; steps " in capsys.readouterr().out


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


# rest masses from 1e-300 to 1e300, so that m c^2 also lies far above or below theta
HEAVY = (st.sampled_from(["1e-300", "1e-100", "1e-12", "1", "1e6", "1e12", "1e100", "1e300"])
         | st.floats(1e-12, 1e12).map(repr))
# values near 1, where a run mostly completes
MILD = st.floats(0.25, 4.0).map(repr)


@st.composite
def fuzzed_kfp_configs(draw):
    """A 16x32 kinetic config, either variant and either potential; half of
    the draws take gamma, theta, c and m near 1, the others extreme.  Most
    start from a Maxwellian shifted by p0 = 0.5 with the potential at its
    default strength and the grid extents auto; the others draw the initial
    density (gaussian, uniform), the potential's strength or either extent."""
    value, mass = (MILD, MILD) if draw(st.booleans()) else (EXTREME, HEAVY)
    kind = draw(st.sampled_from(['cosine', 'harmonic']))
    strength = "amplitude" if kind == "cosine" else "stiffness"
    init = draw(st.sampled_from(["shifted-maxwellian"] * 4 + ["gaussian", "uniform"]))
    text = (f"model.variant = {draw(st.sampled_from(['dh', 'dmr']))}\n"
            f"potential.kind = {kind}\n"
            f"model.gamma = {draw(value)}\nmodel.theta = {draw(value)}\n"
            f"model.c = {draw(value | st.just('inf'))}\nmodel.m = {draw(mass)}\n"
            f"grid.nq = 16\ngrid.np = 32\nsolver.record_every = 2\ninit.kind = {init}\n"
            + ("" if init == "uniform" else "init.p0 = 0.5\n"))
    for key in (f"potential.{strength}", "grid.pmax", "grid.lq"):
        if draw(st.integers(0, 3)) == 0:
            text += f"{key} = {draw(value)}\n"
    return text


@settings(max_examples=100, deadline=None)
@given(experiment=st.sampled_from(["kfp", "stationary"]), text=fuzzed_kfp_configs())
# an underflowed Boltzmann weight, and dissipative coefficients that overflow
@example(experiment="kfp", text="model.variant = dh\npotential.kind = cosine\n"
                                "model.theta = 1e-6\ngrid.nq = 16\ngrid.np = 32\n")
@example(experiment="kfp", text="model.variant = dh\npotential.kind = harmonic\n"
                                "model.gamma = 1e308\nmodel.theta = 0.05\nmodel.c = inf\n"
                                "grid.nq = 16\ngrid.np = 32\n")
# a tiny rest mass: tendencies that overflow, and a DH face diffusion that does
@example(experiment="kfp", text="model.variant = dmr\npotential.kind = cosine\nmodel.m = 1e-300\n"
                                "model.c = inf\nmodel.theta = 1e12\nmodel.gamma = 1.6e-6\n"
                                "grid.nq = 16\ngrid.np = 32\n")
@example(experiment="kfp", text="model.variant = dh\npotential.kind = cosine\nmodel.m = 1e-300\n"
                                "model.c = 0.05\nmodel.theta = 1e12\nmodel.gamma = 1e308\n"
                                "grid.nq = 16\ngrid.np = 32\n")
# an exponent of the Boltzmann weight that overflows, and a gaussian the cells
# do not resolve
@example(experiment="stationary", text="model.theta = 1e-300\npotential.kind = cosine\n"
                                       "potential.amplitude = 1e150\ngrid.nq = 16\n"
                                       "grid.np = 32\n")
@example(experiment="kfp", text="model.theta = 1e20\ninit.kind = gaussian\ngrid.nq = 16\n"
                                "grid.np = 32\n")
def test_fuzzed_kfp_runs_end_in_named_outcomes(tmp_path_factory, experiment, text):
    # a run ends in a named outcome (run_to_named_outcome), and no
    # floating-point warning comes before it.  A kfp run is four transient
    # steps of the operator it builds; a stationary run relaxes to L1 <= 0.05
    # in at most 40 6-stage steps at stable_dt.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = parse_config(text, experiment)
            op = K.KfpOperator(cfg.phase_grid, cfg.params, cfg.potential, cfg.variant)
            if experiment == "kfp":
                text += f"solver.t_final = {4.0 * op.transient_dt()!r}\n"
            else:
                text += (f"solver.t_final = {40.0 * op.stable_dt()!r}\n"
                         "stationary.l1_target = 0.05\n")
        except (ConfigError, StabilityError, ValueError):
            pass          # the run below ends in the same error
        printed = run_to_named_outcome(experiment, text, tmp_path_factory.mktemp("fuzz"))
    assert not caught, (text, printed, [str(w.message) for w in caught])


@pytest.mark.parametrize("experiment", ["kfp", "stationary"])
def test_boltzmann_weight_that_underflows_is_named_without_a_warning(tmp_path, experiment):
    # theta = 1e-300 under a cosine of amplitude 1e150: (H - min H) / theta
    # overflows, and the weight takes its limit 0, which the build names
    text = ("model.theta = 1e-300\npotential.kind = cosine\npotential.amplitude = 1e150\n"
            "grid.nq = 8\ngrid.np = 16\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        printed = run_to_named_outcome(experiment, text, tmp_path)
    assert printed.startswith("run failed: the dissipative flux overflows: the Boltzmann "
                              "weight falls to 0.000e+00"), printed


def test_initial_density_without_finite_positive_mass_is_named(tmp_path):
    # theta = 1e20 makes the auto cells so wide that a unit gaussian is 0 on
    # every one: the initial density is named, not divided 0 / 0 into NaN;
    # and a NaN density fails the mass check it used to pass
    text = "model.theta = 1e20\ninit.kind = gaussian\ngrid.nq = 8\ngrid.np = 16\n"
    cfg = parse_config(text, "kfp")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gaussian initial density has mass 0.0") as caught:
            K.make_initial_state(cfg.init, cfg.phase_grid, cfg.params, cfg.potential)
        printed = run_to_named_outcome("kfp", text, tmp_path)
        assert printed == f"run failed: {caught.value}\n"
        grid = cfg.phase_grid
        rho_inf, _ = maxwellian(grid, cfg.params, cfg.potential)
        with pytest.raises(ValueError, match="rho must have discrete mass 1, got nan"):
            K.relative_entropy(np.full(grid.shape, np.nan), rho_inf, grid)


def test_tiny_rest_mass_is_named_at_the_build():
    # m = 1e-300: the tendencies of a mass-1 density overflow (DMR), and so
    # does the DH face diffusion; each is named before numpy can warn
    cases = [("dmr", "c = inf\nmodel.gamma = 1.6e-6", StabilityError, "tendencies overflow"),
             ("dh", "c = 0.05\nmodel.gamma = 1e308", ValueError, "DH diffusion")]
    for variant, rest, error, match in cases:
        cfg = parse_config(f"model.variant = {variant}\nmodel.m = 1e-300\nmodel.theta = 1e12\n"
                           f"model.{rest}\npotential.kind = cosine\ngrid.nq = 16\n"
                           "grid.np = 32\n", "kfp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                K.KfpOperator(cfg.phase_grid, cfg.params, cfg.potential, cfg.variant)


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
    d_dh = G.face_div_p(cfg.grid, op_dh.dissipative_flux(state.rho))
    d_dmr = G.face_div_p(cfg.grid, op_dmr.dissipative_flux(state.rho))
    assert float(np.abs(d_dh - d_dmr).max()) > 1e-6 * float(np.abs(d_dh).max())
