import numpy as np
import pytest

from relgeneric.generic import Brackets, State
from relgeneric.grid import PhaseGrid
from relgeneric.model import HarmonicPotential, ModelParams, boltzmann_weight
from relgeneric.rng import SplitMix64


@pytest.fixture
def grid():
    return PhaseGrid(Nq=32, Np=32, Lq=16.5, Pmax=34.0)


@pytest.fixture
def params():
    return ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)


@pytest.fixture
def potential():
    return HarmonicPotential(stiffness=0.25)


@pytest.fixture
def rng():
    return SplitMix64(1234)


def make_state(rng, grid, params, potential, e=0.0):
    """Positive normalized state with Boltzmann tails and random bulk structure."""
    rhat, _ = boltzmann_weight(grid, params, potential)
    w = (rng.uniform(-0.5, 0.5)
         * np.sin(2 * np.pi * grid.q_mesh / grid.Lq + rng.uniform(0, 6.28))
         * np.exp(-0.5 * (grid.p_mesh - rng.uniform(-1, 1)) ** 2))
    rho = rhat * np.exp(w)
    rho = rho / (float(np.sum(rho)) * grid.cell_volume)
    return State(rho=rho, e=e)


@pytest.fixture
def state(rng, grid, params, potential):
    return make_state(rng, grid, params, potential, e=0.3)


def perturb_drift(monkeypatch, eps):
    """Scale the drift column grad_p H of every M(z) built from now on by 1 + eps."""
    init = Brackets.__init__

    def perturbed(self, *args):
        init(self, *args)
        self.fields = self.fields._replace(gh_face=self.fields.gh_face * (1.0 + eps))

    monkeypatch.setattr(Brackets, "__init__", perturbed)
