import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgeneric.grid import PhaseGrid
from relgeneric.model import (INFINITE, CosinePotential, HarmonicPotential,
                              ModelParams, Variant, ZeroPotential,
                              diffusion_matrix, hamiltonian, maxwellian,
                              mobility_drift, mobility_drift_divergence,
                              velocity)
from relgeneric.rng import SplitMix64

ZERO = ZeroPotential()


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
    with pytest.raises(ValueError):
        ModelParams(theta=0.0)
    with pytest.raises(ValueError):
        ModelParams(c=-2.0)
    with pytest.raises(TypeError):          # the dimension is the momenta's last axis
        ModelParams(d=1)
    assert ModelParams(c=INFINITE).classical


def test_hamiltonian_rest_energy():
    # at p=0 the relativistic energy is the rest energy m c^2
    p = ModelParams(m=1.0, c=1.0)
    assert hamiltonian(np.array([0.7]), np.array([0.0]), p, ZERO) == pytest.approx(1.0)


def test_hamiltonian_two_dimensional_momentum():
    p = ModelParams(m=1.0, c=1.0)
    val = hamiltonian(np.zeros(2), np.array([3.0, 4.0]), p, ZERO)
    # scalar one-liner oracle: c*sqrt(m^2 c^2 + 9 + 16)
    assert val == pytest.approx(math.sqrt(26.0), rel=1e-15)


def test_hamiltonian_classical():
    p = ModelParams(m=2.0, c=INFINITE)
    val = hamiltonian(np.zeros(2), np.array([2.0, 0.0]), p, ZERO)
    assert val == pytest.approx(1.0)


def test_hamiltonian_rejects_nonfinite():
    p = ModelParams()
    with pytest.raises(ValueError):
        hamiltonian(np.array([np.nan]), np.array([0.0]), p, ZERO)
    with pytest.raises(ValueError):
        velocity(np.array([np.inf]), p)


def test_velocity_values():
    p = ModelParams(m=1.0, c=1.0)
    assert velocity(np.array([0.0]), p) == pytest.approx(0.0)
    assert velocity(np.array([1.0]), p) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    big = velocity(np.array([1e6]), p)
    assert abs(big[0]) < p.c


def test_velocity_classical():
    p = ModelParams(m=4.0, c=INFINITE)
    assert velocity(np.array([2.0]), p) == pytest.approx(0.5)


def test_diffusion_matrix_cases():
    p = ModelParams(m=1.0, c=1.0)
    # DH at p=0 is the identity
    assert np.allclose(diffusion_matrix(np.array([0.0]), Variant.DH, p), np.eye(1))
    # d=1 value via the eigenvalue formula s/(mc)
    dm = diffusion_matrix(np.array([1.0]), Variant.DH, p)
    assert dm[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # DMR is the identity for any p
    assert np.allclose(diffusion_matrix(np.array([3.7]), Variant.DMR, p), np.eye(1))


def test_diffusion_matrix_eigenvalues_d3():
    # along p the eigenvalue is s/(mc); orthogonal to p it is mc/s
    p = ModelParams(m=1.3, c=0.8)
    pv = np.array([0.4, -1.1, 0.7])
    dm = diffusion_matrix(pv, Variant.DH, p)
    s = math.sqrt((p.m * p.c) ** 2 + pv @ pv)
    along = dm @ pv / np.linalg.norm(pv)
    assert np.allclose(along, (s / (p.m * p.c)) * pv / np.linalg.norm(pv), rtol=1e-13)
    perp = np.array([pv[1], -pv[0], 0.0])
    assert np.allclose(dm @ perp, (p.m * p.c / s) * perp, rtol=1e-13)


def test_variants_are_kramers_at_infinite_c():
    # D = I, D v = p/m and div_p(D v) = d/m for both variants, exactly
    p = ModelParams(m=2.0, c=INFINITE)
    pv = np.array([[0.0, 0.0], [3.0, -4.0], [1e3, 0.25], [-7.0, 1e-300]])
    for variant in Variant:
        assert np.array_equal(diffusion_matrix(pv, variant, p),
                              np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert np.array_equal(mobility_drift(pv, variant, p), pv / p.m)
        assert np.array_equal(mobility_drift_divergence(pv, variant, p), np.full(4, 2 / p.m))


def test_mobility_drift():
    p = ModelParams(m=2.0, c=5.0)
    drift = mobility_drift(np.array([4.0, 0.0]), Variant.DH, p)
    assert np.allclose(drift, [2.0, 0.0], rtol=1e-13)
    assert np.allclose(mobility_drift(np.zeros(2), Variant.DMR, p), 0.0)
    p1 = ModelParams(m=1.0, c=1.0)
    assert mobility_drift(np.array([1.0]), Variant.DMR, p1)[0] == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-15)


def test_mobility_drift_divergence():
    assert mobility_drift_divergence(np.array([2.2]), Variant.DH,
                                     ModelParams(m=4.0, c=1.0)) == pytest.approx(0.25)
    p = ModelParams(m=1.0, c=1.0)
    assert mobility_drift_divergence(np.array([0.0]), Variant.DMR, p) == pytest.approx(1.0)
    # oracle: central finite difference of the drift
    val = mobility_drift_divergence(np.array([1.0]), Variant.DMR, p)
    assert val == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-14)
    h = 1e-6
    fd = (mobility_drift(np.array([1.0 + h]), Variant.DMR, p)[0]
          - mobility_drift(np.array([1.0 - h]), Variant.DMR, p)[0]) / (2 * h)
    assert val == pytest.approx(fd, rel=1e-6)


def test_fluctuation_dissipation_bulk():
    p = ModelParams(m=1.3, c=0.9)
    rng = SplitMix64(5)
    pv = rng.uniforms(10000 * 3, -10 * p.m * p.c, 10 * p.m * p.c).reshape(-1, 3)
    drift = mobility_drift(pv, Variant.DH, p)
    resid = np.linalg.norm(drift - pv / p.m, axis=-1)
    assert np.all(resid <= 1e-12 * (1.0 + np.linalg.norm(pv, axis=-1) / p.m))


@settings(max_examples=200)
@given(px=st.floats(-20, 20), py=st.floats(-20, 20),
       x1=st.floats(-1, 1), x2=st.floats(-1, 1))
def test_diffusion_matrix_psd_property(px, py, x1, x2):
    p = ModelParams(m=1.0, c=1.0)
    dm = diffusion_matrix(np.array([px, py]), Variant.DH, p)
    xi = np.array([x1, x2])
    assert xi @ dm @ xi >= -1e-14 * (xi @ xi)


@settings(max_examples=200)
@given(pval=st.floats(-50, 50))
def test_dmr_divergence_bound_property(pval):
    p = ModelParams(m=1.0, c=1.0)
    assert mobility_drift_divergence(np.array([pval]), Variant.DMR, p) \
        <= 1 / p.m + 1e-14                 # d = 1: one momentum component


def test_classical_limit_pointwise():
    fast = ModelParams(m=1.0, c=1e6)
    pv = np.array([2.5])
    assert velocity(pv, fast)[0] == pytest.approx(2.5, rel=1e-6)
    assert np.abs(diffusion_matrix(pv, Variant.DH, fast) - np.eye(1)).max() <= 1e-6


def test_potentials():
    q = np.array([1.5])
    harm = HarmonicPotential(stiffness=2.0)
    assert harm.evaluate(q) == pytest.approx(2.25)
    cos = CosinePotential(amplitude=0.5, period=4.0)
    assert cos.evaluate(np.array([2.0])) == pytest.approx(0.0)
    assert np.all(cos.evaluate(np.linspace(-10, 10, 201)[:, None]) >= 0.0)
    with pytest.raises(ValueError):
        HarmonicPotential(stiffness=-1.0)
    with pytest.raises(ValueError):
        CosinePotential(amplitude=-0.1, period=1.0)


class TestMaxwellian:
    def setup_method(self):
        self.params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
        self.pot = HarmonicPotential(stiffness=0.25)
        self.grid = PhaseGrid(Nq=32, Np=64, Lq=34.0, Pmax=34.0)

    def test_normalized(self):
        rho, z = maxwellian(self.grid, self.params, self.pot)
        assert float(np.sum(rho)) * self.grid.cell_volume == pytest.approx(1.0, abs=1e-14)
        assert z > 0

    def test_peak_at_origin(self):
        rho, _ = maxwellian(self.grid, self.params, self.pot)
        iq, ip = np.unravel_index(np.argmax(rho), self.grid.shape)
        assert abs(self.grid.q[iq]) <= 0.51 * self.grid.hq
        assert abs(self.grid.p[ip]) <= 0.51 * self.grid.hp

    def test_boltzmann_ratio_identity(self):
        rho, _ = maxwellian(self.grid, self.params, self.pot)
        rng = SplitMix64(77)
        h = lambda iq, ip: hamiltonian(np.array([self.grid.q[iq]]),
                                       np.array([self.grid.p[ip]]),
                                       self.params, self.pot)
        for _ in range(50):
            iq = int(rng.uniform(0, self.grid.Nq))
            i1 = int(rng.uniform(0, self.grid.Np))
            i2 = int(rng.uniform(0, self.grid.Np))
            lhs = rho[iq, i1] / rho[iq, i2]
            rhs = math.exp(-(h(iq, i1) - h(iq, i2)) / self.params.theta)
            if rhs > 1e-280:
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tail_rule_enforced(self):
        small = PhaseGrid(Nq=32, Np=32, Lq=16.0, Pmax=5.0)
        with pytest.raises(ValueError):
            maxwellian(small, self.params, self.pot)

    def test_classical_mode(self):
        params = ModelParams(m=1.0, c=INFINITE, theta=1.0)
        grid = PhaseGrid(Nq=16, Np=32, Lq=34.0, Pmax=9.0)
        rho, _ = maxwellian(grid, params, self.pot)
        assert float(np.sum(rho)) * grid.cell_volume == pytest.approx(1.0, abs=1e-14)


def test_params_rejects_nan_c():
    with pytest.raises(ValueError):
        ModelParams(c=float("nan"))


@settings(max_examples=100)
@given(a=st.floats(1e-300, 1e300), b=st.floats(1e-300, 1e300))
def test_log_mean_bounds_property(a, b):
    from relgeneric.generic import log_mean
    lm = float(log_mean(np.array(a), np.array(b)))
    assert min(a, b) * (1 - 1e-12) <= lm <= max(a, b) * (1 + 1e-12)
