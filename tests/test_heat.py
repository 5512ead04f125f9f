import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relgeneric import heat as H
from relgeneric.config import load_config
from relgeneric.errors import PositivityError, StabilityError
from relgeneric.grid import LineGrid, time_steps
from relgeneric.limits import heat_initial
from relgeneric.model import INFINITE, ModelParams
from relgeneric.rng import SplitMix64

REL = ModelParams(m=1.0, c=1.0, gamma=1.0, theta=1.0, nu=1.0)
CLASSICAL = ModelParams(m=1.0, c=INFINITE, gamma=1.0, theta=1.0, nu=1.0)
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
EPS = np.finfo(float).eps


@pytest.fixture
def grid():
    return LineGrid(N=64, L=2.0)


def positive_profile(rng, grid):
    rho = 0.2 + rng.uniforms(grid.N)
    return rho / (float(np.sum(rho)) * grid.h)


# ---------------------------------------------------------------------------
# dissipation potential

def test_flux_potential_values():
    assert H.flux_potential(0.0, REL) == 0.0
    assert H.flux_potential(math.sqrt(3.0), REL) == pytest.approx(1.0, rel=1e-14)
    fast = ModelParams(c=1e6, nu=1.0)
    assert H.flux_potential(1.0, fast) == pytest.approx(0.5, abs=1e-6)


def test_flux_potential_exact_at_infinite_c():
    # r = (nu/c)^2 = 0: the classical potential z^2/2 and its gradient z, bit for bit
    zs = np.array([0.0, -0.0, 1e-300, -math.sqrt(3.0), 0.1, 7.5, -1e6, 1e150])
    assert np.array_equal(H.flux_potential(zs, CLASSICAL), zs * zs / 2.0)
    assert np.array_equal(H.saturating_flux(zs, CLASSICAL), zs)
    for params in (REL, CLASSICAL):
        with pytest.raises(ValueError):
            H.flux_potential(float("nan"), params)
        with pytest.raises(ValueError):
            H.saturating_flux(float("inf"), params)


def test_flux_potential_finite_for_huge_z():
    # at finite c the flux saturates at sign(z) c/nu and phi*(z) grows like
    # (c/nu) |z|: no finite z may overflow either or raise a warning
    zs = np.array([1e200, -1e200, 1e308, -1e308])
    other = ModelParams(m=1.0, c=3.0, gamma=1.0, theta=1.0, nu=0.5)
    with np.errstate(all="raise"):
        assert np.array_equal(H.saturating_flux(zs, REL), [1.0, -1.0, 1.0, -1.0])
        assert H.saturating_flux(zs, other) == pytest.approx([6.0, -6.0] * 2, rel=1e-15)
        # phi*(z) is about (c/nu) |z|, finite wherever that is
        for params, z in ((REL, zs), (other, zs[:2])):
            phi = H.flux_potential(z, params)
            assert np.all(np.isfinite(phi))
            assert phi == pytest.approx(np.abs(z) * params.c / params.nu, rel=1e-14)


def test_saturating_flux_values():
    assert H.saturating_flux(0.0, REL) == 0.0
    assert H.saturating_flux(1.0, REL) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    # norm strictly bounded by c/nu
    zs = np.linspace(-100, 100, 1001)
    assert np.all(np.abs(H.saturating_flux(zs, REL)) < REL.c / REL.nu)


@settings(max_examples=100)
@given(z=st.floats(-1e6, 1e6))
def test_flux_potential_gradient_consistent(z):
    h = 1e-4 * (1.0 + abs(z))
    fd = (H.flux_potential(z + h, REL) - H.flux_potential(z - h, REL)) / (2 * h)
    assert H.saturating_flux(z, REL) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_dissipation_potential_properties(grid):
    rng = SplitMix64(9)
    rho = positive_profile(rng, grid)
    for params in (REL, CLASSICAL):
        assert H.dissipation_potential(rho, np.full(grid.N, 4.2), grid, params) == 0.0
        for _ in range(20):
            xi1 = rng.uniforms(grid.N, -1, 1)
            xi2 = rng.uniforms(grid.N, -1, 1)
            k1 = H.dissipation_potential(rho, xi1, grid, params)
            k2 = H.dissipation_potential(rho, xi2, grid, params)
            kmid = H.dissipation_potential(rho, 0.5 * (xi1 + xi2), grid, params)
            assert k1 >= 0.0 and k2 >= 0.0
            assert kmid <= 0.5 * (k1 + k2) + 1e-12


# ---------------------------------------------------------------------------
# right-hand side

def test_rhs_zero_for_uniform(grid):
    rho = np.full(grid.N, 0.5)
    assert np.all(H.heat_rhs(rho, grid, REL) == 0.0)
    assert np.all(H.heat_rhs(rho, grid, CLASSICAL) == 0.0)


def test_rhs_conservative(grid):
    rng = SplitMix64(21)
    rho = positive_profile(rng, grid)
    rhs = H.heat_rhs(rho, grid, REL)
    assert abs(float(np.sum(rhs))) <= 1e-13 * float(np.sum(np.abs(rhs)))


def test_flux_saturation_bound(grid):
    rng = SplitMix64(22)
    for _ in range(50):
        rho = rng.uniforms(grid.N, 0.0, 3.0)   # may contain near-vacuum cells
        f = H.face_flux(rho, grid, REL)
        rbar = 0.5 * (rho + np.roll(rho, -1))
        assert np.all(np.abs(f) <= REL.c * rbar * (1.0 + 1e-12) + 1e-300)


def test_classical_rhs_eigenfunction_refinement():
    # cosine eigenfunction of the Laplacian; error must drop at second order
    errs = []
    for n in (128, 256):
        g = LineGrid(N=n, L=2.0)
        rho = 1.0 + 0.1 * np.cos(2 * np.pi * g.x / g.L)
        rhs = H.heat_rhs(rho, g, CLASSICAL)
        exact = -CLASSICAL.nu * (2 * np.pi / g.L) ** 2 * 0.1 * np.cos(2 * np.pi * g.x / g.L)
        errs.append(float(np.abs(rhs - exact).max()))
    assert errs[1] <= errs[0] / 3.0


def test_generic_assembly_identity(grid):
    rng = SplitMix64(23)
    for params in (REL, CLASSICAL):
        for _ in range(10):
            rho = positive_profile(rng, grid)
            r1 = H.heat_rhs(rho, grid, params)
            r2 = H.heat_rhs_via_potential(rho, grid, params)
            assert float(np.abs(r1 - r2).max()) <= 1e-12 * (float(np.abs(r1).max()) + 1e-300)


def test_classical_flux_reduces_to_fourier(grid):
    rng = SplitMix64(24)
    rho = positive_profile(rng, grid)
    g = (np.roll(rho, -1) - rho) / grid.h
    assert np.allclose(H.face_flux(rho, grid, CLASSICAL), CLASSICAL.nu * g, rtol=1e-15)


# ---------------------------------------------------------------------------
# stepping

def test_step_zero_dt(grid):
    rng = SplitMix64(25)
    state = H.HeatState(rho=positive_profile(rng, grid), t=0.0)
    new = H.step_heat(state, grid, REL, 0.0)
    assert np.array_equal(new.rho, state.rho)


def test_step_rejects_unstable_dt(grid):
    state = H.HeatState(rho=np.full(grid.N, 0.5), t=0.0)
    with pytest.raises(StabilityError):
        H.step_heat(state, grid, REL, 10.0 * H.stable_dt(grid, REL))


def test_step_negativity_guard(grid):
    state = H.HeatState(rho=np.full(grid.N, -1.0), t=0.0)
    state.rho[0] = 1.0
    with pytest.raises(PositivityError):
        # a state prepared below the floor trips the guard immediately
        H.step_heat(H.HeatState(rho=np.full(grid.N, 0.0) - 1e-10, t=0.0),
                    grid, REL, 0.0)


def test_mass_conserved_many_steps(grid):
    rng = SplitMix64(26)
    state = H.HeatState(rho=positive_profile(rng, grid), t=0.0)
    dt = H.stable_dt(grid, REL)
    mass0 = float(np.sum(state.rho)) * grid.h
    for _ in range(10000):
        state = H.step_heat(state, grid, REL, dt)
    assert float(np.sum(state.rho)) * grid.h == pytest.approx(mass0, abs=1e-12)


def test_entropy_nondecreasing_per_step(grid):
    rng = SplitMix64(27)
    state = H.HeatState(rho=positive_profile(rng, grid), t=0.0)
    dt = H.stable_dt(grid, REL)
    s = H.boltzmann_entropy(state.rho, grid)
    for _ in range(500):
        state = H.step_heat(state, grid, REL, dt)
        s_new = H.boltzmann_entropy(state.rho, grid)
        assert s_new >= s - 1e-10
        s = s_new


def test_entropy_rate_nonnegative(grid):
    rng = SplitMix64(28)
    for _ in range(20):
        rho = positive_profile(rng, grid)
        assert H.entropy_rate(rho, grid, REL) >= -1e-12


@pytest.mark.parametrize("params, spike", [
    (REL, 1e200),            # far above 1e154, where rbar**2 overflows
    (ModelParams(m=1.0, c=0.5, gamma=1.0, theta=1.0, nu=1.0), 1e307),   # kappa = 128
    (REL, 1.7e308),          # near the largest double, still stepped exactly
])
def test_huge_spike_steps_without_overflow(grid, params, spike):
    # the ratio form takes d / s before it squares anything, and at kappa =
    # 128 kappa d alone would overflow near 1e307: the flux to each vacuum
    # neighbour must be lam r spike, with r = 1 / sqrt(1 + kappa**2), not 0
    rho = np.zeros(grid.N)
    rho[10] = spike
    dt = H.stable_dt(grid, params)
    lam, kappa = dt * params.nu / grid.h**2, 2.0 * params.nu / (params.c * grid.h)
    state = H.step_heat(H.HeatState(rho=rho, t=0.0), grid, params, dt)
    share = lam / math.sqrt(1.0 + kappa**2)
    assert state.rho[9] == state.rho[11] == pytest.approx(share * spike, rel=4 * EPS)
    assert state.rho[10] == pytest.approx((1.0 - 2.0 * share) * spike, rel=4 * EPS)
    for _ in range(4):
        state = H.step_heat(state, grid, params, dt)
    scaled = state.rho / spike
    assert np.all(np.isfinite(scaled)) and np.all(scaled >= 0.0)
    assert abs(float(np.sum(scaled)) - 1.0) <= 4 * grid.N * EPS
    assert np.count_nonzero(scaled) == 3     # the light cone opens no face in 5 steps


def test_step_near_the_largest_double_is_the_scaled_step(grid):
    # the step is homogeneous of degree one and scaling by a power of two is
    # exact, so data near the largest double, where rho_i + rho_{i+1}
    # overflows, step bit for bit as the same data scaled by 2**-600
    rho = np.zeros(grid.N)
    rho[10], rho[11], rho[30] = 1e308, 1.5e308, 1.7e308
    for params in (REL, ModelParams(m=1.0, c=0.5, gamma=1.0, theta=1.0, nu=1.0)):
        dt = H.stable_dt(grid, params)
        big = H.step_heat(H.HeatState(rho=rho, t=0.0), grid, params, dt).rho
        small = H.step_heat(H.HeatState(rho=rho * 2.0**-600, t=0.0), grid, params, dt).rho
        assert np.all(np.isfinite(big))
        assert np.array_equal(big * 2.0**-600, small)


def test_step_rejects_a_density_that_is_not_finite(grid):
    # genuinely non-finite steps: a nan cell, and a spike of 1e308 at c = inf,
    # where G = d and the difference of the spike's two faces overflows; the
    # step and the run raise the same text, naming the cell and the time
    nan_cell = np.full(grid.N, 0.5)
    nan_cell[7] = math.nan
    spike = np.zeros(grid.N)
    spike[10] = 1e308
    for params, rho, cell in ((REL, nan_cell, 6), (CLASSICAL, spike, 10)):
        dt = H.stable_dt(grid, params)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StabilityError, match="not finite") as stepped:
                H.step_heat(H.HeatState(rho=rho, t=0.25), grid, params, dt)
            with pytest.raises(StabilityError) as run:
                H.run_heat(grid, params, rho, dt, 0.01, record_every=1)
        assert f"at cell {cell} in the step from t = 0.25;" in str(stepped.value)
        assert str(run.value) == str(stepped.value).replace("t = 0.25", "t = 0.0")


# ---------------------------------------------------------------------------
# diagnostics

def test_boltzmann_entropy_values(grid):
    rho = np.full(grid.N, 1.0 / grid.L)
    assert H.boltzmann_entropy(rho, grid) == pytest.approx(math.log(grid.L), rel=1e-14)
    spike = np.zeros(grid.N)
    spike[10] = 1.0 / grid.h
    assert H.boltzmann_entropy(spike, grid) == pytest.approx(math.log(grid.h), rel=1e-14)
    rng = SplitMix64(31)
    rho = positive_profile(rng, grid)
    perm = rho[np.argsort(rng.uniforms(grid.N))]
    assert H.boltzmann_entropy(perm, grid) == pytest.approx(
        H.boltzmann_entropy(rho, grid), rel=1e-13)


def test_support_radius(grid):
    rho = np.zeros(grid.N)
    rho[grid.N // 2] = 1.0
    assert H.support_radius(rho, grid) == pytest.approx(grid.h / 2.0)
    rho[grid.N // 2 + 1] = 0.5
    assert H.support_radius(rho, grid) == pytest.approx(grid.h)
    assert H.support_radius(np.zeros(grid.N), grid) == 0.0
    with pytest.raises(ValueError):
        H.support_radius(rho, grid, threshold=0.0)


def test_classical_step_spreads_support(grid):
    rho = np.zeros(grid.N)
    rho[grid.N // 2] = 1.0 / grid.h
    state = H.step_heat(H.HeatState(rho, 0.0), grid, CLASSICAL,
                        H.stable_dt(grid, CLASSICAL))
    assert state.rho[grid.N // 2 - 1] > 0.0
    assert state.rho[grid.N // 2 + 1] > 0.0


# ---------------------------------------------------------------------------
# light-cone gate

def two_bumps(grid):
    """Two separated compact bumps with exact-zero cells around each."""
    rho = np.zeros(grid.N)
    for lo, hi in ((0.3, 0.6), (1.2, 1.35)):
        s = (grid.x - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        core = np.abs(s) < 1.0
        rho[core] += np.exp(-1.0 / (1.0 - s[core] ** 2))
    return rho / (float(np.sum(rho)) * grid.h)


def near_face_distance(rho, grid):
    """Periodic distance from each cell's near face to supp rho (loop reference)."""
    occupied = np.nonzero(rho != 0.0)[0]
    dist = np.empty(grid.N)
    for j in range(grid.N):
        gaps = [min(abs(j - k), grid.N - abs(j - k)) for k in occupied]
        dist[j] = max(0, min(gaps) - 1) * grid.h
    return dist


@pytest.mark.parametrize("params", [REL, CLASSICAL])
def test_step_ungated_without_vacuum_or_at_infinite_c(grid, params):
    rng = SplitMix64(41)
    dt = H.stable_dt(grid, params)
    data = [positive_profile(rng, grid)]
    if params.classical:
        data.append(two_bumps(grid))   # vacuum, but every face open at c = inf
    for rho in data:
        new = H.step_heat(H.HeatState(rho=rho, t=0.0), grid, params, dt)
        assert np.array_equal(new.rho, rho + dt * H.heat_rhs(rho, grid, params))
        assert new.cone is H.ALL_OPEN


def test_gated_support_stays_in_light_cone(grid):
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0, nu=1.0)
    rho0 = two_bumps(grid)
    dist = near_face_distance(rho0, grid)
    dt = H.stable_dt(grid, params)
    mass0 = float(np.sum(rho0)) * grid.h
    state = H.HeatState(rho=rho0, t=0.0)
    ungated = rho0.copy()
    entropy = H.boltzmann_entropy(rho0, grid)
    for _ in range(400):
        state = H.step_heat(state, grid, params, dt)
        ungated = ungated + dt * H.heat_rhs(ungated, grid, params)
        assert np.all(state.rho[dist > params.c * state.t] == 0.0)
        assert abs(float(np.sum(state.rho)) * grid.h - mass0) <= 1e-10
        new_entropy = H.boltzmann_entropy(state.rho, grid)
        assert new_entropy - entropy >= -1e-10
        entropy = new_entropy
    # the support did spread, and the ungated flux outruns the cone
    assert np.any(state.rho[dist > 0.0] > 0.0)
    assert np.any(ungated[dist > params.c * state.t] != 0.0)


def test_gated_assemblies_and_entropy_rate_agree(grid):
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0, nu=1.0)
    state = H.HeatState(rho=two_bumps(grid), t=0.0)
    reached = H.reached_faces(state, grid, params)
    assert reached is not None and not reached.all()
    r1 = H.heat_rhs(state.rho, grid, params, reached)
    r2 = H.heat_rhs_via_potential(state.rho, grid, params, reached)
    assert float(np.abs(r1 - r2).max()) <= 1e-12 * float(np.abs(r1).max())
    assert np.all(H.face_flux(state.rho, grid, params, reached)[~reached] == 0.0)
    dt = H.stable_dt(grid, params)
    stepped = H.step_heat(state, grid, params, dt)
    assert np.array_equal(stepped.rho, state.rho + dt * r1)
    xi = -(np.log(np.maximum(state.rho, 1e-300)) + 1.0)
    rate = H.entropy_rate(state.rho, grid, params, reached)
    assert rate == float(np.sum(xi * r1)) * grid.h
    assert rate >= 0.0


def test_run_heat_keeps_cone_on_final_state(grid):
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0, nu=1.0)
    rho0 = two_bumps(grid)
    dt = H.stable_dt(grid, params)
    result = H.run_heat(grid, params, rho0, dt, 0.01, 10)
    assert result.state.t == 0.01
    assert np.array_equal(result.state.cone, H.light_cone(rho0, 0.0, grid, params))
    # once the cone covers every face the chain drops the gate
    later = replace(result.state, t=float(result.state.cone.max()))
    assert H.step_heat(later, grid, params, dt).cone is H.ALL_OPEN


# ---------------------------------------------------------------------------
# the Euler step at stable_dt is a doubly stochastic map (see stable_dt)

@st.composite
def monotone_step_cases(draw):
    """A grid, parameters and a state with exact-vacuum cells, isolated
    spikes flanked by vacuum and, for finite c, faces its light cone has not
    reached: the cone is that of the cells in a drawn subset of the support.
    c is infinite, in [1e-2, 1e4], or in [nu / (2 h), 1e6], where kappa =
    2 nu / (c h) < 4 and stable_dt takes its round-off margin."""
    n = draw(st.integers(8, 48))
    grid = LineGrid(N=n, L=draw(st.floats(0.25, 8.0)))
    nu = 10.0 ** draw(st.floats(-2.0, 2.0))
    low = nu / (2.0 * grid.h)
    c = draw(st.one_of(st.just(INFINITE), st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e),
                       st.floats(0.0, 1.0).map(lambda u: low * (1e6 / low) ** u)))
    params = ModelParams(m=1.0, c=c, gamma=1.0, theta=1.0, nu=nu)
    rho = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                 min_size=n, max_size=n)))
    spikes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(1.0, 1e6)),
                           max_size=3))
    for k, height in spikes:
        rho[[k - 1, (k + 1) % n]] = 0.0
        rho[k] = height
    seeds = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cone = H.light_cone(np.where(seeds, rho, 0.0), 0.0, grid, params)
    t = draw(st.floats(0.0, 1.0)) * float(cone.max()) if cone.size else 0.0
    return grid, params, H.HeatState(rho=rho, t=t, cone=cone)


def euler_matrix(state, grid, params, dt):
    """P of new = P rho, from the face diffusivities D = F / g = nu rbar /
    sqrt(rbar**2 + (nu g / c)**2) frozen at the state, zero on closed faces:
    P[i, i+1] = P[i+1, i] = dt D_{i+1/2} / h**2, rows summing to 1.  D is
    evaluated as nu / sqrt(1 + (nu g / (c rbar))**2), which stays <= nu in
    floating point, and is 0 where rbar = 0."""
    rho, n = state.rho, grid.N
    right = np.roll(rho, -1)
    g, rbar = (right - rho) / grid.h, 0.5 * (rho + right)
    if params.classical:
        d = np.full(n, params.nu)
    else:
        ratio = np.divide(params.nu * g, params.c * rbar, out=np.zeros(n), where=rbar > 0)
        d = np.where(rbar > 0, params.nu / np.sqrt(1.0 + ratio**2), 0.0)
    reached = H.reached_faces(state, grid, params)
    if reached is not None:
        d[~reached] = 0.0
    assert np.all((d >= 0.0) & (d <= params.nu))
    w = dt * d / grid.h**2
    i = np.arange(n)
    p = np.zeros((n, n))
    p[i, (i + 1) % n] = p[(i + 1) % n, i] = w
    p[i, i] = 1.0 - w - np.roll(w, 1)
    return p


def entropy_terms(rho, grid):
    """sum |rho log rho| h: the scale of the entropy's round-off."""
    return float(np.sum(np.abs(rho * np.log(np.where(rho > 0.0, rho, 1.0))))) * grid.h


@settings(max_examples=300, deadline=None)
@given(case=monotone_step_cases())
# a flat vacuum edge (g = 0) where nu rbar / sqrt(rbar**2) rounds above nu
@example(case=(LineGrid(N=8, L=1.0),
               ModelParams(m=1.0, c=1.0, gamma=1.0, theta=1.0, nu=0.9821718891880378),
               H.HeatState(rho=np.array([0.0] * 6 + [0.001, 0.001]), t=0.0,
                           cone=np.array([]))))
def test_step_at_stable_dt_is_doubly_stochastic(case):
    grid, params, state = case
    rho, dt = state.rho, H.stable_dt(grid, params)
    new = H.step_heat(state, grid, params, dt).rho     # raises on an undershoot
    if not params.classical:
        # the ratio r = 1 / R of the flux to nu g, R left in work[1] by _flux
        work = np.empty((2, grid.N))
        H._flux(np.append(rho, rho[0]), H._kappa(grid, params), work=work)
        assert np.all((1.0 / work[1] >= 0.0) & (1.0 / work[1] <= 1.0))
    p = euler_matrix(state, grid, params, dt)
    assert p.min() >= -4 * EPS
    assert np.all(np.abs(p.sum(axis=0) - 1.0) <= 4 * EPS)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 4 * EPS)
    assert np.all(np.abs(p @ rho - new) <= 16 * EPS * rho.max())
    # min/max principle over each cell and its two neighbours
    near = np.stack([np.roll(rho, 1), rho, np.roll(rho, -1)])
    low, high = near.min(axis=0), near.max(axis=0)
    assert np.all(new >= low - 8 * EPS * high)
    assert np.all(new <= high + 8 * EPS * high)
    mass = float(np.sum(rho)) * grid.h
    assert abs(float(np.sum(new)) * grid.h - mass) <= 4 * grid.N * EPS * mass
    gain = H.boltzmann_entropy(new, grid) - H.boltzmann_entropy(rho, grid)
    assert gain >= -64 * EPS * (entropy_terms(rho, grid) + entropy_terms(new, grid) + mass)
    assert H.saturation_excess(new, grid, params) <= 0.0


def test_heat_bump_auto_step_matches_quarter_step_run():
    # the auto step halves heat_bump's step count; its error against the
    # same scheme at a quarter of the step stays within ROADMAP item 3's
    # 1e-3 L1 gate
    cfg = load_config(CONFIGS / "heat_bump.cfg", "heat")
    grid, params = cfg.heat_grid, cfg.params
    rho0 = heat_initial(cfg, grid)
    dt = H.stable_dt(grid, params)
    assert time_steps(cfg.t_final, dt) == (16384, 2.0 ** -15)
    coarse, fine = (H.run_heat(grid, params, rho0, step, cfg.t_final, 10**9).state.rho
                    for step in (dt, 0.25 * dt))
    assert float(np.sum(np.abs(coarse - fine))) * grid.h <= 1e-3


def test_stable_dt_is_the_diffusion_bound_for_every_c():
    # h^2 / (2 nu) where 2 c h <= nu, (1 - 2^-20) h^2 / (2 nu) where 2 c h > nu
    # and at c = INFINITE, and no other dependence on c
    for grid, nu in ((LineGrid(N=128, L=1.0), 1.0), (LineGrid(N=48, L=3.0), 0.37)):
        full = 0.5 * grid.h**2 / nu
        edge = nu / (2.0 * grid.h)

        def dt(c):
            return H.stable_dt(grid, ModelParams(c=c, nu=nu))

        assert all(dt(c) == full for c in (1e-6, 1e-2, 1.0, 0.5 * edge, edge))
        assert all(dt(c) == (1.0 - 2.0**-20) * full
                   for c in (math.nextafter(edge, math.inf), 1.01 * edge, 4.0 * edge,
                             1e3 * edge, 1e300, INFINITE))


@pytest.mark.parametrize("c", [80.0, 256.0])
def test_front_window_at_the_diffusion_step(c):
    # 2 c h > nu: a front can saturate while the step stays at h^2 / (2 nu);
    # the heat_bump data at c = 80 and 256 to T = 0.01 keep the scheme's
    # accuracy, light cone, flux saturation and entropy
    cfg = load_config(CONFIGS / "heat_bump.cfg", "heat")
    grid, params, t_final = cfg.heat_grid, replace(cfg.params, c=c), 0.01
    assert 2.0 * c * grid.h > params.nu
    rho0 = heat_initial(cfg, grid)
    dt = H.stable_dt(grid, params)
    res, fine = (H.run_heat(grid, params, rho0, step, t_final, 10**9)
                 for step in (dt, 0.25 * dt))
    assert float(np.sum(np.abs(res.state.rho - fine.state.rho))) * grid.h <= 1e-3
    growth = H.support_radius(res.state.rho, grid) - H.support_radius(rho0, grid)
    assert growth <= c * t_final + 2.0 * grid.h
    assert res.max_saturation_excess <= 1e-12
    assert res.min_step_entropy_delta >= -1e-10


def test_initial_profiles(grid):
    for kind, kwargs in (("uniform", {}), ("gaussian", {"sigma": 0.2}),
                         ("bump", {"width": 0.5})):
        rho = H.initial_profile(kind, grid, **kwargs)
        assert float(np.sum(rho)) * grid.h == pytest.approx(1.0, rel=1e-12)
        assert np.all(rho >= 0.0)
    bump = H.initial_profile("bump", grid, width=0.5)
    assert H.support_radius(bump, grid) <= 0.25 + grid.h
    with pytest.raises(ValueError):
        H.initial_profile("squiggle", grid)
    with pytest.raises(ValueError):
        H.initial_profile("gaussian", grid, sigma=-1.0)


def test_run_heat_records_and_saturation(grid):
    rho0 = H.initial_profile("gaussian", grid, sigma=0.2)
    seen = []
    result = H.run_heat(grid, REL, rho0, H.stable_dt(grid, REL), 0.01, 50,
                        on_record=lambda st: seen.append(st.t))
    assert seen[0] == 0.0
    assert result.state.t == pytest.approx(0.01, rel=1e-12)
    assert result.max_saturation_excess <= 1e-12
    assert result.min_step_entropy_delta >= -1e-10


def reference_run(grid, params, rho0, dt, t_final):
    """run_heat from public calls: a step_heat chain, with the saturation and
    entropy checks on every visited state, the first and the last included."""
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step_dt = t_final / n_steps
    state = H.HeatState(rho=rho0.copy(), t=0.0)
    max_sat = H.saturation_excess(state.rho, grid, params)
    entropy = H.boltzmann_entropy(state.rho, grid)
    min_ds = 0.0
    for _ in range(n_steps):
        state = H.step_heat(state, grid, params, step_dt)
        new_entropy = H.boltzmann_entropy(state.rho, grid)
        min_ds = min(min_ds, new_entropy - entropy)
        entropy = new_entropy
        max_sat = max(max_sat, H.saturation_excess(state.rho, grid, params))
    return state.rho, max_sat, min_ds


def run_data(kind, grid):
    if kind == "near-uniform":
        return 1.0 + 1e-8 * np.cos(2 * np.pi * grid.x / grid.L)
    if kind == "plateau":
        return 0.01 + (np.abs(grid.x - 0.5 * grid.L) < 0.25)
    return H.initial_profile(kind, grid, sigma=0.2, width=0.5)


@pytest.mark.parametrize("kind, params, n_steps", [
    ("bump", REL, 287),           # vacuum: the cone opens faces during the run
    ("gaussian", REL, 287),       # saturation excess < 0, largest at the first state
    ("plateau", REL, 5),          # saturation excess rising: largest at the last state
    ("near-uniform", REL, 287),   # entropy steps at round-off, some negative
    ("bump", CLASSICAL, 287),     # c = inf: no gate, no saturation check
])
def test_run_heat_matches_public_step_chain(grid, kind, params, n_steps):
    rho0 = run_data(kind, grid)
    dt = H.stable_dt(grid, params)
    t_final = n_steps * dt
    rho, max_sat, min_ds = reference_run(grid, params, rho0, dt, t_final)
    result = H.run_heat(grid, params, rho0, dt, t_final, record_every=100)
    assert np.array_equal(result.state.rho, rho)
    assert result.max_saturation_excess == max_sat
    assert result.min_step_entropy_delta == min_ds
    # the cases reach the extremes at the first and at the last state
    first, last = (H.saturation_excess(r, grid, params) for r in (rho0, rho))
    if kind == "gaussian":
        assert max_sat == first > last
    if kind == "plateau":
        assert max_sat == last > first
    if kind == "near-uniform":
        assert min_ds < 0.0


def test_run_heat_rejects_unstable_dt_and_undershoot(grid):
    rho0 = H.initial_profile("gaussian", grid, sigma=0.2)
    dt = 10.0 * H.stable_dt(grid, REL)
    with pytest.raises(StabilityError):
        H.run_heat(grid, REL, rho0, dt, dt, record_every=1)
    # a state prepared below the floor trips the guard on the first step
    with pytest.raises(PositivityError):
        H.run_heat(grid, REL, np.full(grid.N, -1e-10), H.stable_dt(grid, REL),
                   0.01, record_every=1)


# ---------------------------------------------------------------------------
# block-batched checks of run_heat against the public step chain
#
# On the 64-cell fixture these tests step at 2**-12, half the stable step
# h**2 / (2 nu) = 2**-11, so every step count lands exactly on t_final and a
# run started from any state of a chain repeats the chain bit for bit.

def chain(grid, params, rho0, dt, n_steps):
    """Densities of a step_heat chain from rho0, the first and the last included."""
    states = [H.HeatState(rho=rho0.copy(), t=0.0)]
    for _ in range(n_steps):
        states.append(H.step_heat(states[-1], grid, params, dt))
    return [s.rho for s in states]


def assert_matches_reference(grid, params, rho0, dt, n_steps):
    rho, max_sat, min_ds = reference_run(grid, params, rho0, dt, n_steps * dt)
    result = H.run_heat(grid, params, rho0, dt, n_steps * dt, record_every=5)
    assert np.array_equal(result.state.rho.view(np.uint64), rho.view(np.uint64))
    assert result.max_saturation_excess == max_sat
    assert result.min_step_entropy_delta == min_ds
    return result


@pytest.mark.parametrize("n_steps", [H._BLOCK - 3, H._BLOCK, 3 * H._BLOCK + 5])
@pytest.mark.parametrize("kind", ["near-uniform", "plateau", "bump"])
def test_run_heat_block_boundaries(grid, kind, n_steps):
    # below one block, exactly one block, and a partial last block
    dt = 2.0 ** -12
    assert dt == 0.5 * H.stable_dt(grid, REL)
    assert_matches_reference(grid, REL, run_data(kind, grid), dt, n_steps)


@pytest.mark.parametrize("kind, pick", [
    ("plateau", max),        # saturation excess rises for 9 steps, then falls
    ("near-uniform", min),   # entropy steps at round-off, some negative
])
def test_run_heat_extremum_inside_a_block(grid, kind, pick):
    dt = 2.0 ** -12
    rhos = chain(grid, REL, run_data(kind, grid), dt, 6 * H._BLOCK)
    if pick is max:
        values = [H.saturation_excess(r, grid, REL) for r in rhos[:-1]]
    else:
        entropies = [H.boltzmann_entropy(r, grid) for r in rhos]
        values = [b - a for a, b in zip(entropies, entropies[1:])]
    # start the run where the extremum of the states it checks in blocks
    # (the saturation of each state it steps from, the entropy change of each
    # step) falls in the middle of a block
    start = next(s for s in range(len(values))
                 if values[s:].index(pick(values[s:])) % H._BLOCK == H._BLOCK // 2)
    result = assert_matches_reference(grid, REL, rhos[start], dt, len(values) - start)
    if pick is max:
        assert result.max_saturation_excess == max(values[start:])
        assert result.max_saturation_excess > H.saturation_excess(rhos[-1], grid, REL)
    else:
        assert result.min_step_entropy_delta == min(values[start:]) < 0.0


def test_run_heat_cone_opens_inside_a_block(grid):
    # c = 3: the cone reaches a new face every h / c = 42.7 steps
    params = ModelParams(m=1.0, c=3.0, gamma=1.0, theta=1.0, nu=1.0)
    rho0 = two_bumps(grid)
    dt = 2.0 ** -12
    assert dt == 0.5 * H.stable_dt(grid, params)
    n_steps = 6 * H._BLOCK + 3
    cone = H.light_cone(rho0, 0.0, grid, params)
    opened = [k for k in range(1, n_steps)
              if np.any((cone <= k * dt) != (cone <= (k - 1) * dt))]
    assert any(0 < k % H._BLOCK < H._BLOCK - 1 for k in opened)
    result = assert_matches_reference(grid, params, rho0, dt, n_steps)
    assert np.array_equal(result.state.cone, cone)


def test_run_heat_positivity_error_at_the_reference_step(grid):
    # negative data diffuse backward: the grid-scale ripple grows until the
    # 69th step undershoots NEGATIVE_TOL; step index 68 is mid-block
    rho0 = -5e-15 + 3e-18 * (-1.0) ** np.arange(grid.N)
    dt = 2.0 ** -12
    states = [H.HeatState(rho=rho0.copy(), t=0.0)]
    with pytest.raises(PositivityError) as expected:
        while True:
            states.append(H.step_heat(states[-1], grid, REL, dt))
    failing_step = len(states) - 1
    assert failing_step == 68 and 0 < failing_step % H._BLOCK < H._BLOCK - 1
    seen = []
    with pytest.raises(PositivityError) as caught:
        H.run_heat(grid, REL, rho0, dt, 100 * dt, record_every=1,
                   on_record=lambda st: seen.append(st.rho.copy()))
    assert str(caught.value) == str(expected.value)
    # the error names the lowest cell of the failed step and the time it stepped from
    last = states[-1]
    undershoot = last.rho + dt * H.heat_rhs(last.rho, grid, REL)
    assert str(expected.value).endswith(
        f"at cell {np.argmin(undershoot)} in the step from t = {last.t!r}")
    assert len(seen) == len(states)
    assert all(np.array_equal(a, s.rho) for a, s in zip(seen, states))


def test_run_heat_states_never_alias_the_workspace(grid):
    params = ModelParams(m=1.0, c=2.0, gamma=1.0, theta=1.0, nu=1.0)
    dt = H.stable_dt(grid, params)
    result = H.run_heat(grid, params, two_bumps(grid), dt, (3 * H._BLOCK + 5) * dt,
                        record_every=1, on_record=lambda st: (st, st.rho.tobytes()))
    seen = result.records
    assert len(seen) == 3 * H._BLOCK + 6 and seen[-1][0] is result.state
    # later steps left every handed-out state as it was handed out
    assert all(st.rho.tobytes() == snapshot for st, snapshot in seen)
    for i, (a, _) in enumerate(seen):
        assert a.rho.flags.owndata
        assert not any(np.shares_memory(a.rho, b.rho) for b, _ in seen[i + 1:])


def test_run_heat_allocation_budget_at_512():
    # the workspace and the first state exist at the first record; the steps
    # after it allocate the final state and little else.  The allocating loop
    # this replaced peaked at about eleven grid arrays above that point
    grid = LineGrid(N=512, L=4.0)
    rho0 = H.initial_profile("bump", grid, width=1.0)
    dt = H.stable_dt(grid, REL)
    H.run_heat(grid, REL, rho0, dt, 64 * dt, record_every=10**9)
    at_first_record = []

    def on_record(st):
        if not at_first_record:
            at_first_record.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        H.run_heat(grid, REL, rho0, dt, 64 * dt, record_every=10**9, on_record=on_record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - at_first_record[0] <= 3 * rho0.nbytes
    # a small block: the whole run, workspace included, stays below 48 grid arrays
    assert peak <= 48 * rho0.nbytes
