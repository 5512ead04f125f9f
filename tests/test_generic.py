import math

import numpy as np
import pytest

from relgeneric import generic as G
from relgeneric.grid import PhaseGrid
from relgeneric.model import (HarmonicPotential, ModelParams, Variant,
                              ZeroPotential, hamiltonian, maxwellian)
from relgeneric.rng import SplitMix64

from conftest import make_state, perturb_drift

ZERO = ZeroPotential()


# ---------------------------------------------------------------------------
# discrete calculus: the single adjointness property everything rests on

def test_grad_div_exact_adjointness(grid, rng):
    a = rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape)
    b = rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape)
    scale = G.grid_norm(grid, a) * G.grid_norm(grid, b)
    # the periodic centred difference is skew-adjoint: div_q is grad_q itself
    assert abs(G.inner(grid, a, G.grad_q(grid, b))
               + G.inner(grid, G.grad_q(grid, a), b)) <= 1e-13 * scale
    assert abs(G.inner(grid, a, G.div_p(grid, b))
               + G.inner(grid, G.grad_p(grid, a), b)) <= 1e-13 * scale
    f = rng.uniforms(grid.Nq * (grid.Np - 1), -1, 1).reshape(grid.Nq, grid.Np - 1)
    lhs = G.inner(grid, a, G.face_div_p(grid, f))
    rhs = -float(np.sum(G.face_grad_p(grid, a) * f)) * grid.cell_volume
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_gradients_annihilate_constants(grid):
    const = np.full(grid.shape, 2.7)
    assert np.all(G.grad_q(grid, const) == 0.0)
    assert np.all(G.grad_p(grid, const) == 0.0)
    assert np.all(G.face_grad_p(grid, const) == 0.0)


def test_log_mean():
    assert G.log_mean(np.array(3.0), np.array(3.0)) == pytest.approx(3.0)
    a, b = np.array(1.0), np.array(2.0)
    assert G.log_mean(a, b) == pytest.approx((2.0 - 1.0) / math.log(2.0), rel=1e-14)
    # near-equal arguments stay smooth (series branch)
    assert G.log_mean(np.array(1.0), np.array(1.0 + 1e-9)) == pytest.approx(1.0, rel=1e-9)
    # vacuum side gives zero
    assert G.log_mean(np.array(0.0), np.array(5.0)) == 0.0
    # between min and max always
    rng = SplitMix64(3)
    x = rng.uniforms(100, 1e-8, 10.0)
    y = rng.uniforms(100, 1e-8, 10.0)
    lm = G.log_mean(x, y)
    assert np.all(lm >= np.minimum(x, y) - 1e-15)
    assert np.all(lm <= np.maximum(x, y) + 1e-15)


def _log_mean_both_branches(a, b):
    """log_mean as it was when it evaluated both branches on every face."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast(a, b).shape)
    ok = (a > 0) & (b > 0)
    aa, bb = np.broadcast_to(a, out.shape)[ok], np.broadcast_to(b, out.shape)[ok]
    f = (aa - bb) / (aa + bb)
    f2 = f * f
    series = 1.0 + f2 * (1.0 / 3.0 + f2 * (1.0 / 5.0 + f2 / 7.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.log(aa) - np.log(bb)) / (2.0 * f)
    val = np.where(f2 >= 1e-4, exact, series)
    out[ok] = (aa + bb) / (2.0 * val)
    return out


def _log_mean_cases():
    rng = np.random.default_rng(5)
    # f = (a - b) / (a + b) on both sides of the branch switch f^2 = 1e-4,
    # near it, at f = 0 and far from it; then zero, negative and huge arguments
    f = np.concatenate([0.01 * (1.0 + np.linspace(-1e-3, 1e-3, 41)), [0.01, 0.0, 0.5, -0.3],
                        rng.uniform(-0.02, 0.02, 200), rng.uniform(-1.0, 1.0, 200)])
    b = 10.0 ** rng.uniform(-300, 300, f.size)
    a = b * (1.0 + f) / (1.0 - f)
    a[:4], b[4:8] = 0.0, 0.0
    a[8:10], b[10:12] = -1.0, -0.0
    a[12], b[13] = np.inf, 1e308
    f2 = ((a[14:] - b[14:]) / (a[14:] + b[14:])) ** 2
    assert np.count_nonzero(abs(f2 - 1e-4) < 3e-7) >= 20 and np.any(f2 < 1e-4) \
        and np.any(f2 >= 1e-4)
    return [(a, b), (b, a), (a[:, None], b[None, :60]), (a[:7, None, None], b[None, :5, None]),
            (np.float64(3.0), b), (2.0, 2.0 * (1 + 1e-3)), (0.0, 1.0)]


def test_log_mean_keeps_a_nan_face_nan(state, grid, params, potential):
    # only faces where min(a, b) <= 0 are zeroed: a NaN cell leaves its two
    # faces NaN, so a bracket on such a density is not a silent 0
    assert math.isnan(G.log_mean(np.array(np.nan), np.array(1.0)))
    assert G.log_mean(np.array(0.0), np.array(1.0)) == 0.0
    rho = state.rho.copy()
    rho[3, 5] = np.nan
    weight = G.Brackets(G.State(rho, 0.0), grid, params, potential, Variant.DH).face_weight
    nan = np.zeros(weight.shape, dtype=bool)
    nan[3, 4:6] = True
    assert np.array_equal(np.isnan(weight), nan)


def test_log_mean_bitwise_equal_to_both_branch_form():
    for x, y in _log_mean_cases():
        with np.errstate(invalid="ignore"):
            new, old = G.log_mean(x, y), _log_mean_both_branches(x, y)
        assert new.shape == old.shape == np.broadcast(x, y).shape
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def test_log_mean_into_buffers_bitwise_equal_to_allocating():
    # out and work start as garbage (NaN); broadcast inputs included
    for x, y in _log_mean_cases():
        shape = np.broadcast(x, y).shape
        out, t, f = (np.full(shape, np.nan) for _ in range(3))
        got = G.log_mean(x, y, out=out, work=(t, f))
        assert got is out
        assert np.array_equal(out.view(np.uint64), G.log_mean(x, y).view(np.uint64))


# ---------------------------------------------------------------------------
# functionals

def test_energy_functional_kahan_oracle(grid, params, potential, state):
    val = G.energy_functional(state, grid, params, potential)
    h = hamiltonian(grid.q_mesh[..., None], grid.p_mesh[..., None], params, potential)
    terms = (h * state.rho).ravel()[::-1]   # reversed-order Kahan summation
    total = 0.0
    comp = 0.0
    for x in terms:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    oracle = total * grid.cell_volume + state.e
    assert val == pytest.approx(oracle, rel=1e-12)


def test_energy_linear_in_excess(grid, params, potential, state):
    base = G.energy_functional(state, grid, params, potential)
    shifted = G.State(state.rho, state.e + 5.0)
    assert G.energy_functional(shifted, grid, params, potential) == pytest.approx(base + 5.0)


def test_energy_delta_state(grid, params, potential):
    rho = np.zeros(grid.shape)
    rho[5, 7] = 1.0 / grid.cell_volume
    val = G.energy_functional(G.State(rho, 0.0), grid, params, potential)
    expected = hamiltonian(np.array([grid.q[5]]), np.array([grid.p[7]]),
                           params, potential)
    assert val == pytest.approx(float(expected), rel=1e-14)


def test_entropy_uniform_closed_form(grid, params):
    rho = np.full(grid.shape, 1.0 / (grid.Lq * 2.0 * grid.Pmax))
    s = G.entropy_functional(G.State(rho, 0.0), grid, params)
    assert s == pytest.approx(params.theta * math.log(grid.Lq * 2 * grid.Pmax), rel=1e-13)


def test_entropy_zero_cells_finite(grid, params):
    rho = np.full(grid.shape, 1.0 / (grid.Lq * 2.0 * grid.Pmax))
    rho[0, 0] = 0.0
    assert math.isfinite(G.entropy_functional(G.State(rho, 0.0), grid, params))


def test_entropy_linear_in_excess(grid, params, state):
    base = G.entropy_functional(state, grid, params)
    assert G.entropy_functional(G.State(state.rho, state.e + 2.0), grid, params) \
        == pytest.approx(base + 2.0)


def test_gradient_energy(grid, params, potential, state):
    v = G.gradient_energy(state, grid, params, potential)
    assert v.r == 1.0
    # with V=0 the p=0 row is the constant rest energy
    v0 = G.gradient_energy(state, grid, params, ZERO)
    j0 = int(np.argmin(np.abs(grid.p)))
    mc2 = params.m * params.c**2
    assert np.allclose(v0.xi[:, j0], math.sqrt(mc2**2 + (params.c * grid.p[j0]) ** 2),
                       rtol=1e-14)


def test_gradient_entropy_uniform_value(grid, params):
    rho = np.full(grid.shape, math.exp(-1.0))
    v = G.gradient_entropy(G.State(rho, 0.0), grid, params)
    assert v.r == 1.0
    assert np.abs(v.xi).max() <= 1e-14


def test_gradient_entropy_degenerate_signals(grid, params):
    rho = np.zeros(grid.shape)
    rho[0, 0] = 1.0 / grid.cell_volume
    with pytest.raises(ValueError):
        G.gradient_entropy(G.State(rho, 0.0), grid, params)


def test_functional_gradients_match_fd(grid, params, potential, rng):
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
        assert G.inner(grid, v.xi, delta) + v.r * de == pytest.approx(fd, rel=1e-6)
        v = G.gradient_entropy(state, grid, params)
        fd = (G.entropy_functional(plus, grid, params)
              - G.entropy_functional(minus, grid, params)) / (2 * eps)
        assert G.inner(grid, v.xi, delta) + v.r * de == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# Poisson operator

def test_poisson_constant_covector(grid, params, potential, state):
    v = G.CotangentVector(np.full(grid.shape, 3.3), 0.4)
    drho, de = G.Brackets(state, grid, params, potential, Variant.DH).poisson(v)
    assert np.all(drho == 0.0)
    assert de == 0.0


def test_poisson_bracket_antisymmetry(grid, params, potential, rng):
    for _ in range(25):
        state = make_state(rng, grid, params, potential)
        v1 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                               rng.uniform(-1, 1))
        v2 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                               rng.uniform(-1, 1))
        brackets = G.Brackets(state, grid, params, potential, Variant.DH)
        b12 = brackets.poisson_bracket(v1, v2)
        b21 = brackets.poisson_bracket(v2, v1)
        scale = abs(b12) + abs(b21) + 1e-300
        assert abs(b12 + b21) <= 1e-12 * scale
        bff = brackets.poisson_bracket(v1, v1)
        assert abs(bff) <= 1e-12 * (2 * abs(b12) + 1e-300)


def test_poisson_mass_conserving(grid, params, potential, state, rng):
    v = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape), 0.0)
    drho, _ = G.Brackets(state, grid, params, potential, Variant.DH).poisson(v)
    assert abs(float(np.sum(drho)) * grid.cell_volume) \
        <= 1e-12 * float(np.sum(np.abs(drho))) * grid.cell_volume


def test_transport_at_maxwellian_refines_at_second_order():
    params = ModelParams(m=1.0, c=4.0, gamma=0.5, theta=1.0)
    pot = HarmonicPotential(stiffness=1.0)
    a = params.theta * (-math.log(1e-14) + 1.0)
    pmax = math.sqrt((params.m * params.c + a / params.c) ** 2
                     - (params.m * params.c) ** 2) * 1.01
    qe = math.sqrt(2 * a / pot.stiffness) * 1.01
    resid = []
    for n in (32, 64, 128):
        g = PhaseGrid(Nq=n, Np=n, Lq=2 * qe, Pmax=pmax)
        rinf, _ = maxwellian(g, params, pot)
        v = G.gradient_energy(G.State(rinf, 0.0), g, params, pot)
        drho, _ = G.Brackets(G.State(rinf, 0.0), g, params, pot, Variant.DH).poisson(v)
        resid.append(G.grid_norm(g, drho))
    order = math.log2(resid[1] / resid[2])
    assert 1.7 <= order <= 2.3


# ---------------------------------------------------------------------------
# dissipative operator

@pytest.mark.parametrize("variant", [Variant.DH, Variant.DMR])
def test_dissipative_energy_degeneracy_exact(grid, params, potential, state, variant):
    v_e = G.gradient_energy(state, grid, params, potential)
    drho, de = G.Brackets(state, grid, params, potential, variant).dissipative(v_e)
    assert np.all(drho == 0.0)
    assert de == 0.0


@pytest.mark.parametrize("variant", [Variant.DH, Variant.DMR])
def test_dissipative_symmetry_and_psd(grid, params, potential, rng, variant):
    for _ in range(25):
        state = make_state(rng, grid, params, potential)
        v1 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                               rng.uniform(-1, 1))
        v2 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                               rng.uniform(-1, 1))
        brackets = G.Brackets(state, grid, params, potential, variant)
        m12 = brackets.dissipative_bracket(v1, v2)
        m21 = brackets.dissipative_bracket(v2, v1)
        assert abs(m12 - m21) <= 1e-12 * (abs(m12) + abs(m21) + 1e-300)
        quad = brackets.dissipative_bracket(v1, v1)
        assert quad >= -1e-14 * (abs(m12) + abs(quad) + 1e-300)


def test_dissipative_bracket_quadratic_form_identity(grid, params, potential, state, rng):
    # [v1, M v2] equals the face-quadrature of gamma D (gxi1 - r1 gH)(gxi2 - r2 gH) rho_f
    variant = Variant.DH
    v1 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                           rng.uniform(-1, 1))
    v2 = G.CotangentVector(rng.uniforms(grid.Nq * grid.Np, -1, 1).reshape(grid.shape),
                           rng.uniform(-1, 1))
    brackets = G.Brackets(state, grid, params, potential, variant)
    bracket = brackets.dissipative_bracket(v1, v2)
    fields = brackets.fields
    gh, dface, u = fields.gh_face, fields.dface, state.rho / fields.rhat
    rho_f = fields.rhat_face * G.log_mean(u[:, :-1], u[:, 1:])
    g1 = G.face_grad_p(grid, v1.xi) - v1.r * gh
    g2 = G.face_grad_p(grid, v2.xi) - v2.r * gh
    direct = params.gamma * float(np.sum(dface * rho_f * g1 * g2)) * grid.cell_volume
    assert bracket == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_dissipative_drift_perturbation_hook(grid, params, potential, state, monkeypatch):
    v_e = G.gradient_energy(state, grid, params, potential)
    perturb_drift(monkeypatch, 1e-6)
    drho, de = G.Brackets(state, grid, params, potential, Variant.DH).dissipative(v_e)
    assert float(np.abs(drho).max()) > 0.0


def test_degeneracy_residuals(grid, params, potential, state):
    brackets = G.Brackets(state, grid, params, potential, Variant.DH)
    res_l, res_m = brackets.degeneracy_residuals()
    assert res_m == 0.0
    assert res_l > 0.0
    # uniform density with V = 0: the entropy gradient is constant, so L dS = 0
    rho = np.full(grid.shape, 1.0 / (grid.Lq * 2 * grid.Pmax))
    res_l, _ = G.Brackets(G.State(rho, 0.0), grid, params, ZERO,
                          Variant.DH).degeneracy_residuals()
    assert res_l <= 1e-14


def test_degeneracy_refinement_order():
    params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
    resid = []
    for n in (32, 64, 128):
        g = PhaseGrid(Nq=n, Np=n, Lq=16.0, Pmax=10.0)
        w = 0.4 * np.sin(2 * np.pi * g.q_mesh / g.Lq) * np.exp(-0.125 * g.p_mesh**2)
        rho = np.exp(-0.5 * g.p_mesh**2) * np.exp(w)
        rho /= float(np.sum(rho)) * g.cell_volume
        res_l, _ = G.Brackets(G.State(rho, 0.0), g, params, ZERO,
                              Variant.DH).degeneracy_residuals()
        resid.append(res_l)
    assert 1.7 <= math.log2(resid[0] / resid[1]) <= 2.3 or \
        1.7 <= math.log2(resid[1] / resid[2]) <= 2.3
    slope = -float(np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(resid), 1)[0])
    assert 1.7 <= slope <= 2.3


def test_entropy_production_vanishes_at_equilibrium(grid, params, potential):
    # at the sampled Maxwellian the entropy gradient differs from the energy
    # gradient by a constant, so the dissipative production [dS, dS] collapses
    rinf, _ = maxwellian(grid, params, potential)
    state = G.State(rinf, 0.0)
    v_s = G.gradient_entropy(state, grid, params)
    brackets = G.Brackets(state, grid, params, potential, Variant.DH)
    production = brackets.dissipative_bracket(v_s, v_s)
    ref = brackets.dissipative_bracket(G.CotangentVector(v_s.xi, 0.0),
                                       G.CotangentVector(v_s.xi, 0.0))
    assert 0.0 <= production <= 1e-12 * ref


def test_poisson_bracket_with_entropy_gradient_refines():
    # {v, dS} vanishes only in the refinement limit
    params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
    vals = []
    for n in (32, 64, 128):
        g = PhaseGrid(Nq=n, Np=n, Lq=16.0, Pmax=10.0)
        rho = np.exp(-0.5 * g.p_mesh**2) \
            * (1.0 + 0.4 * np.sin(2 * np.pi * g.q_mesh / g.Lq)
               * np.exp(-0.125 * g.p_mesh**2))
        rho /= float(np.sum(rho)) * g.cell_volume
        state = G.State(rho, 0.0)
        probe = G.CotangentVector(np.cos(2 * np.pi * g.q_mesh / g.Lq)
                                  * np.exp(-0.2 * g.p_mesh**2), 0.0)
        v_s = G.gradient_entropy(state, g, params)
        brackets = G.Brackets(state, g, params, ZERO, Variant.DH)
        vals.append(abs(brackets.poisson_bracket(probe, v_s)))
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] <= vals[0] / 8.0
