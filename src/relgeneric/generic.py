"""GENERIC skeleton on a phase grid.

State, energy/entropy functionals and their derivatives, the antisymmetric
(Poisson) operator L(z) and the symmetric positive-semidefinite
(dissipative) operator M(z) frozen at a state in one ``Brackets`` object,
with their brackets and degeneracy residuals, and a finite-dimensional
Jacobi-identity checker.

Discrete calculus convention: the cell-centered gradient uses centered
differences (periodic in q, one-sided at the momentum edges) and every
divergence is the exact negative adjoint of the matching gradient under the
plain midpoint inner product.  That single choice makes the antisymmetry of
the Poisson operator and the symmetry of the dissipative operator hold to
round-off instead of to discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import PhaseGrid
from .model import ModelParams, Potential, Variant, grid_fields

# cells below MASK_FLOOR are excluded from entropy-gradient consumption;
# LOG_FLOOR only guards the log against 0.
LOG_FLOOR = 1e-300
MASK_FLOOR = 1e-30


@dataclass(frozen=True)
class State:
    """GENERIC state z = (rho, e): grid density plus scalar excess energy."""

    rho: np.ndarray
    e: float


@dataclass(frozen=True)
class CotangentVector:
    """A pair (xi, r): grid function and scalar, dual to (rho, e)."""

    xi: np.ndarray
    r: float


@dataclass
class DiagnosticsRecord:
    t: float
    E: float
    S: float
    mass: float
    dSdt: float
    degL: float
    degM: float
    relEnt: float | None
    e: float


# ---------------------------------------------------------------------------
# discrete calculus

def grad_q(grid: PhaseGrid, a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Centered periodic difference along the position axis.

    Every discrete-calculus function writes into ``out`` when given (it must
    not overlap the input, and for grad_p and div_p it must be C-contiguous)
    and otherwise allocates its result.
    """
    # a[i+1] - a[i-1] from slices, with the two wrapped rows done apart
    if out is None:
        out = np.empty(a.shape, np.result_type(a, 1.0))
    np.subtract(a[2:], a[:-2], out=out[1:-1])
    np.subtract(a[1:2], a[-1:], out=out[:1])
    np.subtract(a[:1], a[-2:-1], out=out[-1:])
    out /= 2.0 * grid.hq
    return out


def div_q(grid: PhaseGrid, f: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    # periodic centered difference is skew-adjoint, so -grad_q^T = grad_q
    return grad_q(grid, f, out=out)


def grad_p(grid: PhaseGrid, a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Centered difference along momentum, one-sided at the truncated edges."""
    hp = grid.hp
    if out is None:
        out = np.empty(a.shape, np.result_type(a, 1.0))
    # a[j+1] - a[j-1] along the flattened rows, in one contiguous pass; the
    # values this leaves in the edge columns mix rows and are overwritten
    flat, flat_out = a.reshape(-1), out.reshape(-1, copy=False)
    np.subtract(flat[2:], flat[:-2], out=flat_out[1:-1])
    flat_out[1:-1] /= 2.0 * hp
    out[:, 0] = (a[:, 1] - a[:, 0]) / hp
    out[:, -1] = (a[:, -1] - a[:, -2]) / hp
    return out


def div_p(grid: PhaseGrid, f: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Exact negative adjoint of grad_p under the midpoint inner product."""
    hp = grid.hp
    if out is None:
        out = np.empty(f.shape, np.result_type(f, 1.0))
    # interior as in grad_p; the four edge columns are overwritten below
    flat, flat_out = f.reshape(-1), out.reshape(-1, copy=False)
    np.subtract(flat[3:-1], flat[1:-3], out=flat_out[2:-2])
    flat_out[2:-2] /= 2.0 * hp
    out[:, 0] = f[:, 0] / hp + f[:, 1] / (2.0 * hp)
    out[:, 1] = -f[:, 0] / hp + f[:, 2] / (2.0 * hp)
    out[:, -2] = -f[:, -3] / (2.0 * hp) + f[:, -1] / hp
    out[:, -1] = -f[:, -2] / (2.0 * hp) - f[:, -1] / hp
    return out


def face_grad_p(grid: PhaseGrid, a: np.ndarray, *,
                out: np.ndarray | None = None) -> np.ndarray:
    """Two-point gradient on interior momentum faces, shape (Nq, Np-1)."""
    if out is None:
        out = np.empty((a.shape[0], a.shape[1] - 1), np.result_type(a, 1.0))
    np.subtract(a[:, 1:], a[:, :-1], out=out)
    out /= grid.hp
    return out


def face_div_p(grid: PhaseGrid, f: np.ndarray, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Flux divergence from interior momentum faces; zero flux at +-Pmax."""
    if out is None:
        out = np.empty((f.shape[0], f.shape[1] + 1), np.result_type(f, 1.0))
    # f - 0 and 0 - f as written out, so that signed zeros come out the same
    np.subtract(f[:, 0], 0.0, out=out[:, 0])
    np.subtract(f[:, 1:], f[:, :-1], out=out[:, 1:-1])
    np.subtract(0.0, f[:, -1], out=out[:, -1])
    out /= grid.hp
    return out


def inner(grid: PhaseGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b)) * grid.cell_volume


def grid_norm(grid: PhaseGrid, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a) * grid.cell_volume))


def log_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable logarithmic mean (a-b)/(log a - log b), with log_mean(x,x)=x.

    Zero arguments give zero (the one-sided limit), matching the convention
    that vacuum cells carry no dissipative face flux.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast(a, b).shape)
    ok = (a > 0) & (b > 0)
    aa, bb = np.broadcast_to(a, out.shape)[ok], np.broadcast_to(b, out.shape)[ok]
    f = (aa - bb) / (aa + bb)       # (z-1)/(z+1) without forming the ratio
    f2 = f * f
    # each face takes one branch: the exact form where |f| >= 0.01 (so f != 0),
    # the series elsewhere (NaN included)
    exact = f2 >= 1e-4
    series = ~exact
    val = np.empty(f.shape)
    val[exact] = (np.log(aa[exact]) - np.log(bb[exact])) / (2.0 * f[exact])
    s2 = f2[series]
    val[series] = 1.0 + s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 / 7.0))
    out[ok] = (aa + bb) / (2.0 * val)
    return out


# ---------------------------------------------------------------------------
# functionals and their derivatives

def energy_functional(state: State, grid: PhaseGrid, params: ModelParams,
                      potential: Potential) -> float:
    """E(rho, e) = sum H rho * cell volume + e."""
    h = grid_fields(grid, params, potential, None).h_cells
    return inner(grid, h, state.rho) + state.e


def entropy_functional(state: State, grid: PhaseGrid, params: ModelParams) -> float:
    """S(rho, e) = -theta sum rho log rho * cell volume + e, with 0 log 0 = 0."""
    rho = state.rho
    contrib = np.where(rho > 0.0, rho * np.log(np.maximum(rho, LOG_FLOOR)), 0.0)
    return -params.theta * float(np.sum(contrib)) * grid.cell_volume + state.e


def gradient_energy(state: State, grid: PhaseGrid, params: ModelParams,
                    potential: Potential) -> CotangentVector:
    """dE = (H, 1); H is the shared read-only cell Hamiltonian."""
    return CotangentVector(xi=grid_fields(grid, params, potential, None).h_cells, r=1.0)


def gradient_entropy(state: State, grid: PhaseGrid, params: ModelParams) -> CotangentVector:
    rho = state.rho
    masked = rho < MASK_FLOOR
    if masked.sum() > 0.5 * rho.size:
        raise ValueError("degenerate state: more than half of all cells are "
                         f"below the density floor {MASK_FLOOR:.0e}")
    xi = -params.theta * (np.log(np.maximum(rho, LOG_FLOOR)) + 1.0)
    xi[masked] = 0.0
    return CotangentVector(xi=xi, r=1.0)


# ---------------------------------------------------------------------------
# operators

class Brackets:
    """The GENERIC operators L(z) and M(z) frozen at one state z.

    Built once per (state, grid, params, potential, variant): the
    constructor reads the shared ``model.grid_fields`` (kept as ``fields``)
    and computes the log-mean face density ``rho_f`` of the state, which
    every application of M reuses.  ``rho_f = rhat_f * logmean(rho/rhat)``
    is positive, second-order, and chosen so that M applied to the entropy
    gradient reproduces the equilibrium-weighted flux form used by the
    kinetic solver exactly.  The state's entropy gradient is taken at most
    once, on first use of ``entropy_gradient``.
    """

    def __init__(self, state: State, grid: PhaseGrid, params: ModelParams,
                 potential: Potential, variant: Variant):
        self.state, self.grid, self.params = state, grid, params
        self.fields = grid_fields(grid, params, potential, variant)
        u = state.rho / self.fields.rhat
        self.rho_f = self.fields.rhat_face * log_mean(u[:, :-1], u[:, 1:])
        self.face_weight = self.fields.dface * self.rho_f    # D rho_f on faces

    @cached_property
    def entropy_gradient(self) -> CotangentVector:
        return gradient_entropy(self.state, self.grid, self.params)

    def poisson(self, v: CotangentVector):
        """L(z)(xi, r) = (div(rho J grad xi), 0) with J the canonical symplectic matrix."""
        rho, grid = self.state.rho, self.grid
        gq = grad_q(grid, v.xi)
        gp = grad_p(grid, v.xi)
        drho = div_q(grid, -rho * gp) + div_p(grid, rho * gq)
        return drho, 0.0

    def dissipative(self, v: CotangentVector):
        """M(z)(xi, r): friction-diffusion block of the GENERIC evolution.

        Returns (drho, de) with
            drho = gamma * div_p( D rho_f (r grad_p H - grad_p xi) )
            de   = gamma * sum D grad_p H (r grad_p H - grad_p xi) rho_f * vol
        assembled from one shared face gradient of the cell-sampled H, which
        feeds every occurrence of grad_p H, so that symmetry and the
        degeneracy M dE = 0 are exact.
        """
        gh, gamma = self.fields.gh_face, self.params.gamma
        combo = self.face_weight * (v.r * gh - face_grad_p(self.grid, v.xi))
        drho = gamma * face_div_p(self.grid, combo)
        de = gamma * float(np.sum(gh * combo)) * self.grid.cell_volume
        return drho, de

    def poisson_bracket(self, v1: CotangentVector, v2: CotangentVector) -> float:
        drho, de = self.poisson(v2)
        return inner(self.grid, v1.xi, drho) + v1.r * de

    def dissipative_bracket(self, v1: CotangentVector, v2: CotangentVector) -> float:
        drho, de = self.dissipative(v2)
        return inner(self.grid, v1.xi, drho) + v1.r * de

    def degeneracy_residuals(self):
        """(|L dS|_2, |M dE|_2) under the grid norm (e-component included)."""
        grid = self.grid
        l_rho, l_e = self.poisson(self.entropy_gradient)
        m_rho, m_e = self.dissipative(CotangentVector(self.fields.h_cells, 1.0))
        res_l = float(np.sqrt(grid_norm(grid, l_rho) ** 2 + l_e**2))
        res_m = float(np.sqrt(grid_norm(grid, m_rho) ** 2 + m_e**2))
        return res_l, res_m


def second_momentum_moment(state: State, grid: PhaseGrid) -> float:
    """Discrete second p-moment, tracked as a diagnostic only."""
    return inner(grid, grid.p_mesh**2, state.rho)


# ---------------------------------------------------------------------------
# finite-dimensional Jacobi check

def jacobi_residual_fd(lmat: np.ndarray, f1, f2, f3, z: np.ndarray,
                       step: float = 1e-4):
    """Jacobi residual {{f1,f2},f3} + cyclic at z, by nested central differences.

    The bracket is {f,g}(z) = grad f(z)^T L grad g(z) for a constant
    antisymmetric matrix L, for which the analytic residual vanishes.
    Returns (residual, scale) where scale collects the magnitudes of the
    three triple brackets.
    """
    lmat = np.asarray(lmat, dtype=float)
    n = lmat.shape[0]
    if lmat.shape != (n, n) or n > 8:
        raise ValueError("L must be a square matrix of size at most 8")
    if not np.allclose(lmat, -lmat.T, atol=1e-14 * (1.0 + np.abs(lmat).max())):
        raise ValueError("L must be antisymmetric")
    z = np.asarray(z, dtype=float)

    def fd_grad(f, x):
        g = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fp, fm = f(x + e), f(x - e)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError("finite-difference stencil left the evaluable region")
            g[i] = (fp - fm) / (2.0 * step)
        return g

    def bracket(f, g):
        return lambda x: float(fd_grad(f, x) @ lmat @ fd_grad(g, x))

    terms = [bracket(bracket(f1, f2), f3)(z),
             bracket(bracket(f2, f3), f1)(z),
             bracket(bracket(f3, f1), f2)(z)]
    residual = abs(sum(terms))
    scale = max(1.0, sum(abs(t) for t in terms))
    return residual, scale
