"""Acceptance suite: fixed desk-scale experiments with pinned tolerances.

Each test prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from relgeneric import generic as G
from relgeneric import heat as HT
from relgeneric import kfp as KF
from relgeneric.config import load_config
from relgeneric.limits import heat_initial, run_limit_study
from relgeneric.model import Variant, maxwellian
from relgeneric.rng import SplitMix64
from relgeneric.verify import run_verify

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def report(name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({time.time() - t0:.1f}s)"
    print(line)
    return line


def kfp_config(cfg):
    return KF.KfpConfig(grid=cfg.phase_grid, params=cfg.params,
                        potential=cfg.potential, variant=cfg.variant,
                        dt=cfg.dt, t_final=cfg.t_final,
                        record_every=cfg.record_every, init=cfg.init)


def test_criterion_1_structure_suite():
    t0 = time.time()
    cfg = load_config(CONFIGS / "verify.cfg", "verify")
    results, report_text, ok = run_verify(cfg.phase_grid, cfg.params, cfg.potential,
                                          seed=1, opts=cfg.verify)
    elapsed = time.time() - t0
    line = report("criterion 1 structure suite", ok and elapsed <= 30.0,
                  f"{sum(r.passed for r in results)}/{len(results)} checks", t0)
    assert ok, report_text
    assert elapsed <= 30.0, line


def test_criterion_2_degeneracy_refinement():
    t0 = time.time()
    from relgeneric.grid import PhaseGrid
    from relgeneric.model import ModelParams, ZeroPotential
    params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
    resid = []
    for n in (32, 64, 128):
        grid = PhaseGrid(Nq=n, Np=n, Lq=16.0, Pmax=10.0)
        w = 0.4 * np.sin(2 * np.pi * grid.q_mesh / grid.Lq) \
            * np.exp(-0.125 * grid.p_mesh**2)
        rho = np.exp(-0.5 * grid.p_mesh**2) * np.exp(w)
        rho /= float(np.sum(rho)) * grid.cell_volume
        deg_l, deg_m = G.Brackets(G.State(rho, 0.0), grid, params,
                                  ZeroPotential(), Variant.DH).degeneracy_residuals()
        assert deg_m == 0.0
        resid.append(deg_l)
    order = -float(np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(resid), 1)[0])
    ok = 1.7 <= order <= 2.3 and time.time() - t0 <= 60.0
    report("criterion 2 degeneracy refinement", ok,
           f"|L dS| = {resid[0]:.3e}/{resid[1]:.3e}/{resid[2]:.3e}, order {order:.2f}",
           t0)
    assert 1.7 <= order <= 2.3
    assert time.time() - t0 <= 60.0


def test_criterion_3_coupled_conservation():
    t0 = time.time()
    cfg = load_config(CONFIGS / "kfp_conserve.cfg", "kfp")
    assert cfg.variant is Variant.DH
    assert (cfg.phase_grid.Nq, cfg.phase_grid.Np) == (64, 64)
    assert cfg.params.gamma == 0.5 and cfg.params.theta == 1.0
    assert cfg.params.m == 1.0 and cfg.params.c == 1.0 and cfg.t_final == 1.0
    res = KF.integrate(kfp_config(cfg))
    energies = [r.E for r in res.records]
    e_drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
    s_min_delta = float(np.diff([r.S for r in res.records]).min())
    mass_drift = max(abs(r.mass - res.records[0].mass) for r in res.records)
    bound = cfg.params.gamma * cfg.params.theta / cfg.params.m
    h_rate_max = max(r.dHrho_dt for r in res.records)
    ok = (e_drift <= 1e-6 and s_min_delta >= -1e-8 and mass_drift <= 1e-10
          and h_rate_max <= bound + 1e-10)
    report("criterion 3 coupled conservation", ok,
           f"|dE|/E={e_drift:.2e}, min dS={s_min_delta:.2e}, "
           f"dmass={mass_drift:.2e}, max dH/dt={h_rate_max:.3f} vs {bound}", t0)
    assert e_drift <= 1e-6
    assert s_min_delta >= -1e-8
    assert mass_drift <= 1e-10
    assert h_rate_max <= bound + 1e-10
    assert time.time() - t0 <= 120.0


@pytest.mark.parametrize("variant", ["dh", "dmr"])
def test_criterion_4_shared_stationarity(variant):
    t0 = time.time()
    cfg = load_config(CONFIGS / f"stationary_{variant}.cfg", "stationary")
    kcfg = kfp_config(cfg)

    # the dissipative tendency must vanish identically on the sampled Maxwellian
    op = KF.KfpOperator(kcfg.grid, kcfg.params, kcfg.potential, kcfg.variant)
    rho_inf, _ = maxwellian(kcfg.grid, kcfg.params, kcfg.potential)
    tend = G.face_div_p(kcfg.grid, op.dissipative_flux(rho_inf))
    u_max = float((rho_inf / op.rhat).max())
    kernel_scale = kcfg.params.gamma * kcfg.params.theta \
        * float((op.dface * op.rhat_face).max()) * u_max / kcfg.grid.hp**2
    kernel = float(np.abs(tend).max())

    res = KF.integrate(kcfg, l1_stop=cfg.l1_target)
    l1 = res.records[-1].l1
    rel_rise = max(float(np.diff([r.relEnt for r in res.records]).max()), 0.0)
    ok = (res.converged and l1 <= 1e-3 and rel_rise <= 1e-8
          and kernel <= 1e-14 * kernel_scale)
    report(f"criterion 4 stationarity ({variant})", ok,
           f"L1={l1:.2e} at t={res.records[-1].t:.1f}, relEnt rise={rel_rise:.1e}, "
           f"kernel={kernel:.1e} vs {1e-14 * kernel_scale:.1e}", t0)
    assert kernel <= 1e-14 * kernel_scale
    assert res.converged and l1 <= 1e-3
    assert rel_rise <= 1e-8
    assert time.time() - t0 <= 300.0


def test_criterion_4_same_equilibrium_both_variants():
    cfg_dh = load_config(CONFIGS / "stationary_dh.cfg", "stationary")
    cfg_dmr = load_config(CONFIGS / "stationary_dmr.cfg", "stationary")
    r1, _ = maxwellian(cfg_dh.phase_grid, cfg_dh.params, cfg_dh.potential)
    r2, _ = maxwellian(cfg_dmr.phase_grid, cfg_dmr.params, cfg_dmr.potential)
    assert np.array_equal(r1, r2)   # both runs relax toward the identical target


def test_criterion_5_newtonian_limits():
    t0 = time.time()
    heat_devs, kfp_devs, dmr_devs = (
        [d for _, d in run_limit_study(load_config(CONFIGS / name, "limit-study"))]
        for name in ("limit_heat.cfg", "limit_kfp.cfg", "limit_kfp_dmr.cfg"))

    def falls(devs):
        return all(b < a for a, b in zip(devs, devs[1:]))
    ok = (falls(heat_devs) and falls(kfp_devs) and falls(dmr_devs)
          and heat_devs[-1] <= 1e-4 and kfp_devs[-1] <= 1e-3 and dmr_devs[-1] <= 1e-3)
    report("criterion 5 newtonian limits", ok,
           f"heat devs {['%.2e' % d for d in heat_devs]}, "
           f"kfp devs {['%.2e' % d for d in kfp_devs]}, "
           f"dmr devs {['%.2e' % d for d in dmr_devs]}", t0)
    assert falls(heat_devs) and heat_devs[-1] <= 1e-4
    assert falls(kfp_devs) and kfp_devs[-1] <= 1e-3
    assert falls(dmr_devs) and dmr_devs[-1] <= 1e-3
    assert time.time() - t0 <= 600.0


def test_criterion_6_finite_propagation():
    t0 = time.time()
    cfg = load_config(CONFIGS / "heat_bump.cfg", "heat")
    grid, params = cfg.heat_grid, cfg.params
    assert grid.N == 512 and params.c == 1.0 and params.nu == 1.0
    rho0 = heat_initial(cfg, grid)
    r0 = HT.support_radius(rho0, grid)
    # dt None: the supersteps the CLI takes, the gate set at each one's start
    res = HT.run_heat(grid, params, rho0, None, cfg.t_final, cfg.record_every)
    growth = HT.support_radius(res.state.rho, grid) - r0
    bound = params.c * cfg.t_final + 2.0 * grid.h

    ccfg = load_config(CONFIGS / "heat_bump_classical.cfg", "heat")
    cres = HT.run_heat(ccfg.heat_grid, ccfg.params, heat_initial(ccfg, ccfg.heat_grid),
                       None, ccfg.t_final, ccfg.record_every)
    classical_full = bool(np.all(cres.state.rho > 1e-12))

    ok = (res.max_saturation_excess <= 1e-12 and classical_full and growth <= bound)
    report("criterion 6 finite propagation", ok,
           f"saturation excess {res.max_saturation_excess:.1e}, classical control "
           f"{'full domain' if classical_full else 'NOT full'}, "
           f"support growth {growth:.4f} vs bound {bound:.4f}", t0)
    assert res.max_saturation_excess <= 1e-12
    assert classical_full
    assert time.time() - t0 <= 30.0
    # The three-point flux alone moves mass one cell per stage into vacuum,
    # far faster than c at the diffusion-limited dt; the stepper's light-cone
    # gate zeroes the flux on faces farther than c t from supp rho0 at each
    # superstep's start, and a superstep of at most h / (4 c) lets the gate
    # lag the front by at most h / 4.
    assert growth <= bound, (
        f"support growth {growth:.4f} exceeds c*T + 2h = {bound:.4f}: the "
        f"1e-12 contour rides a dispersive precursor of the saturated flux")


def test_criterion_7_dual_assembly():
    t0 = time.time()
    cfg = load_config(CONFIGS / "verify.cfg", "verify")
    grid, params, potential = cfg.phase_grid, cfg.params, cfg.potential
    rng = SplitMix64(42)
    from conftest import make_state
    worst_kfp = 0.0
    for _ in range(20):
        state = make_state(rng, grid, params, potential, e=rng.uniform(-1, 1))
        for variant in (Variant.DH, Variant.DMR):
            op = KF.KfpOperator(grid, params, potential, variant)
            drho1, de1 = op.rhs(state)
            v_e = G.gradient_energy(state, grid, params, potential)
            v_s = G.gradient_entropy(state, grid, params)
            brackets = G.Brackets(state, grid, params, potential, variant)
            l_rho, l_e = brackets.poisson(v_e)
            m_rho, m_e = brackets.dissipative(v_s)
            scale = max(float(np.abs(drho1).max()), abs(de1), 1e-300)
            worst_kfp = max(worst_kfp,
                            float(np.abs(drho1 - (l_rho + m_rho)).max()) / scale,
                            abs(de1 - (l_e + m_e)) / scale)
    from relgeneric.grid import LineGrid
    from relgeneric.model import ModelParams
    hgrid = LineGrid(N=128, L=2.0)
    hparams = ModelParams(m=1.0, c=1.0, nu=1.0)
    worst_heat = 0.0
    for _ in range(20):
        rho = 0.2 + rng.uniforms(hgrid.N)
        r1 = HT.heat_rhs(rho, hgrid, hparams)
        r2 = HT.heat_rhs_via_potential(rho, hgrid, hparams)
        worst_heat = max(worst_heat,
                         float(np.abs(r1 - r2).max()) / float(np.abs(r1).max()))
    ok = worst_kfp <= 1e-10 and worst_heat <= 1e-12
    report("criterion 7 dual assembly", ok,
           f"kinetic {worst_kfp:.2e} (tol 1e-10), heat {worst_heat:.2e} (tol 1e-12)",
           t0)
    assert worst_kfp <= 1e-10
    assert worst_heat <= 1e-12
    assert time.time() - t0 <= 60.0


def test_criterion_8_functional_derivatives():
    t0 = time.time()
    cfg = load_config(CONFIGS / "verify.cfg", "verify")
    grid, params, potential = cfg.phase_grid, cfg.params, cfg.potential
    rng = SplitMix64(314)
    from conftest import make_state
    worst = 0.0
    for _ in range(10):
        state = make_state(rng, grid, params, potential, e=rng.uniform(-1, 1))
        delta = rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape) * state.rho
        de = rng.uniform(-1, 1)
        eps = 1e-5
        plus = G.State(state.rho + eps * delta, state.e + eps * de)
        minus = G.State(state.rho - eps * delta, state.e - eps * de)
        v = G.gradient_energy(state, grid, params, potential)
        fd = (G.energy_functional(plus, grid, params, potential)
              - G.energy_functional(minus, grid, params, potential)) / (2 * eps)
        worst = max(worst, abs(G.inner(grid, v.xi, delta) + v.r * de - fd) / abs(fd))
        v = G.gradient_entropy(state, grid, params)
        fd = (G.entropy_functional(plus, grid, params)
              - G.entropy_functional(minus, grid, params)) / (2 * eps)
        worst = max(worst, abs(G.inner(grid, v.xi, delta) + v.r * de - fd) / abs(fd))
    ok = worst <= 1e-6
    report("criterion 8 functional derivatives", ok,
           f"max relative error {worst:.2e} (tol 1e-6)", t0)
    assert worst <= 1e-6
    assert time.time() - t0 <= 10.0
