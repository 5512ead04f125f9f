"""GENERIC skeleton on a phase grid.

State, energy/entropy functionals and their derivatives, the antisymmetric
(Poisson) operator L(z) and the symmetric positive-semidefinite
(dissipative) operator M(z) frozen at a state in one ``Brackets`` object,
with their brackets and degeneracy residuals.

Discrete calculus convention: the cell-centered gradient uses centered
differences (periodic in q, one-sided at the momentum edges) and every
divergence is the exact negative adjoint of the matching gradient under the
plain midpoint inner product (in q grad_q itself, being skew-adjoint).  That
single choice makes the antisymmetry of the Poisson operator and the symmetry
of the dissipative operator hold to round-off instead of to discretization
error.  M's face pair lives in ``grid``, which H's face gradient also uses.

The calculus, ``inner``, ``grid_norm``, ``log_mean``, the functionals and
``Brackets`` write into caller-given buffers (``out=``, ``work=``) when
given, with the same bits as their allocating calls, so that a kinetic
record needs no grid-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import PhaseGrid, face_div_p, face_grad_p
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
    # kinetic only, and no CSV columns: the L1 distance to the Maxwellian, d/dt int H rho
    l1: float | None = None
    dHrho_dt: float | None = None


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


def faces_of(cells: np.ndarray) -> np.ndarray:
    """A C-contiguous (Nq, Np-1) face-shaped view on the start of a C-contiguous
    cell array.

    np.sum adds such a view in the same order as a fresh face array, so a
    face pass written into one gives the same bits as the allocating pass.
    """
    nq, np_ = cells.shape
    return cells.reshape(-1)[:nq * (np_ - 1)].reshape(nq, np_ - 1)


# The products of inner and grid_norm go into ``work`` when given (an array
# of the operands' shape, C-contiguous like them), so that neither allocates.

def inner(grid: PhaseGrid, a: np.ndarray, b: np.ndarray, *,
          work: np.ndarray | None = None) -> float:
    return float(np.sum(np.multiply(a, b, out=work))) * grid.cell_volume


def grid_norm(grid: PhaseGrid, a: np.ndarray, *, work: np.ndarray | None = None) -> float:
    return float(np.sqrt(np.sum(np.multiply(a, a, out=work)) * grid.cell_volume))


def log_mean(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None,
             work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Stable logarithmic mean (a-b)/(log a - log b), with log_mean(x,x)=x.

    Zero arguments give zero (the one-sided limit), matching the convention
    that vacuum cells carry no dissipative face flux.  Writes into ``out``
    and takes its two float temporaries from ``work`` (a pair of arrays of
    the broadcast shape), when given, and otherwise allocates them; out must
    not overlap a, b or work.  Every face takes one branch: the exact form
    where f = (a-b)/(a+b) has |f| >= 0.01 (so f != 0), the series elsewhere
    (NaN included); faces with min(a, b) <= 0 are then zeroed, NaN not.  Each
    face is computed alone, so buffers change no bit of the result.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if out is None:
        out = np.empty(shape)
    t, f = (np.empty(shape), np.empty(shape)) if work is None else work
    mask = np.empty(shape, dtype=bool)
    # faces outside a, b > 0 may warn here; they are zeroed at the end
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(np.subtract(a, b, out=f), np.add(a, b, out=t), out=f)
        f2 = np.multiply(f, f, out=t)
        np.greater_equal(f2, 1e-4, out=mask)
        # the series 1 + f2 (1/3 + f2 (1/5 + f2/7)) on every face
        np.divide(f2, 7.0, out=out)
        out += 1.0 / 5.0
        out *= f2
        out += 1.0 / 3.0
        out *= f2
        out += 1.0
        # the exact form (log a - log b) / (2 f) where the mask is set
        log_a = np.log(a, out=t, where=mask)
        np.log(b, out=out, where=mask)
        np.subtract(log_a, out, out=log_a, where=mask)
        np.multiply(f, 2.0, out=f, where=mask)
        np.divide(log_a, f, out=out, where=mask)
        # (a + b) / (2 val), and zero where min(a, b) <= 0; a NaN stays NaN
        out *= 2.0
        np.divide(np.add(a, b, out=t), out, out=out)
    np.copyto(out, 0.0, where=np.less_equal(np.minimum(a, b, out=t), 0.0, out=mask))
    return out


# ---------------------------------------------------------------------------
# functionals and their derivatives

def energy_functional(state: State, grid: PhaseGrid, params: ModelParams,
                      potential: Potential, *, work: np.ndarray | None = None) -> float:
    """E(rho, e) = sum H rho * cell volume + e; the product goes into ``work``."""
    h = grid_fields(grid, params, potential, None).h_cells
    return inner(grid, h, state.rho, work=work) + state.e


def log_density(rho: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """log(max(rho, LOG_FLOOR)), the one log the entropy and its gradient share."""
    return np.log(np.maximum(rho, LOG_FLOOR, out=out), out=out)


# S and dS take the state's log_density as ``log_rho`` when the caller has
# it; S writes its terms into ``work``, dS its grid part into ``out`` (which
# may be log_rho itself).

def entropy_functional(state: State, grid: PhaseGrid, params: ModelParams, *,
                       log_rho: np.ndarray | None = None,
                       work: np.ndarray | None = None) -> float:
    """S(rho, e) = -theta sum rho log rho * cell volume + e, with 0 log 0 = 0."""
    rho = state.rho
    if log_rho is None:
        log_rho = work = log_density(rho, out=work)
    contrib = np.multiply(rho, log_rho, out=work)
    np.copyto(contrib, 0.0, where=np.logical_not(rho > 0.0))
    return -params.theta * float(np.sum(contrib)) * grid.cell_volume + state.e


def gradient_energy(state: State, grid: PhaseGrid, params: ModelParams,
                    potential: Potential) -> CotangentVector:
    """dE = (H, 1); H is the shared read-only cell Hamiltonian."""
    return CotangentVector(xi=grid_fields(grid, params, potential, None).h_cells, r=1.0)


def gradient_entropy(state: State, grid: PhaseGrid, params: ModelParams, *,
                     log_rho: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> CotangentVector:
    rho = state.rho
    masked = rho < MASK_FLOOR
    if np.count_nonzero(masked) > 0.5 * rho.size:
        raise ValueError("degenerate state: more than half of all cells are "
                         f"below the density floor {MASK_FLOOR:.0e}")
    if log_rho is None:
        log_rho = out = log_density(rho, out=out)
    xi = np.add(log_rho, 1.0, out=out)
    xi *= -params.theta
    np.copyto(xi, 0.0, where=masked)
    return CotangentVector(xi=xi, r=1.0)


# ---------------------------------------------------------------------------
# operators

class Brackets:
    """The GENERIC operators L(z) and M(z) frozen at one state z.

    Built once per (state, grid, params, potential, variant): the
    constructor reads the shared ``model.grid_fields`` (kept as ``fields``)
    and computes from the log-mean face density
    ``rho_f = rhat_f * logmean(rho/rhat)`` the face weight
    ``face_weight = D rho_f``, which every application of M reuses.  rho_f
    is positive, second-order, and chosen so that M applied to the entropy
    gradient reproduces the equilibrium-weighted flux form used by the
    kinetic solver exactly.  The state's entropy gradient is taken at most
    once, on first use of ``entropy_gradient``, unless the caller passes it.

    With ``work``, four C-contiguous cell arrays, the object allocates no
    grid array: ``face_weight`` lives in the first and the methods write
    into the other three, so each result is valid only until the next call.
    Without it every array is fresh.  The values are the same bit for bit.
    """

    def __init__(self, state: State, grid: PhaseGrid, params: ModelParams,
                 potential: Potential, variant: Variant, *,
                 entropy_gradient: CotangentVector | None = None,
                 work: tuple[np.ndarray, ...] | None = None):
        self.state, self.grid, self.params = state, grid, params
        self.fields = grid_fields(grid, params, potential, variant)
        if entropy_gradient is not None:
            self.entropy_gradient = entropy_gradient
        self._work = work
        weight = faces_of(work[0]) if work is not None else np.empty(self.fields.gh_face.shape)
        u, t, f = self._scratch(3)
        np.divide(state.rho, self.fields.rhat, out=u)
        log_mean(u[:, :-1], u[:, 1:], out=weight, work=(faces_of(t), faces_of(f)))
        weight *= self.fields.rhat_face     # rho_f
        weight *= self.fields.dface
        self.face_weight = weight

    def _scratch(self, n: int):
        """n cell arrays to write into: the last n work arrays, or fresh ones.

        A method's result takes the first, so the last is free after it."""
        if self._work is None:
            return [np.empty(self.grid.shape) for _ in range(n)]
        return self._work[-n:]

    @cached_property
    def entropy_gradient(self) -> CotangentVector:
        return gradient_entropy(self.state, self.grid, self.params)

    def poisson(self, v: CotangentVector):
        """L(z)(xi, r) = (div(rho J grad xi), 0) with J the canonical symplectic matrix.

        drho = div_p(rho grad_q xi) - grad_q(rho grad_p xi): div_q is grad_q,
        as the periodic centred difference is skew-adjoint."""
        rho, grid = self.state.rho, self.grid
        drho, gq, gp = self._scratch(3)
        grad_q(grid, v.xi, out=gq)
        grad_p(grid, v.xi, out=gp)
        div_p(grid, np.multiply(rho, gq, out=gq), out=drho)
        drho -= grad_q(grid, np.multiply(rho, gp, out=gp), out=gq)
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
        gh, gamma, grid = self.fields.gh_face, self.params.gamma, self.grid
        drho, combo, prod = self._scratch(3)
        combo, prod = faces_of(combo), faces_of(prod)
        np.multiply(gh, v.r, out=combo)
        combo -= face_grad_p(grid, v.xi, out=prod)
        combo *= self.face_weight
        face_div_p(grid, combo, out=drho)
        drho *= gamma
        de = gamma * float(np.sum(np.multiply(gh, combo, out=prod))) * grid.cell_volume
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
        spare = None if self._work is None else self._work[-1]
        l_rho, l_e = self.poisson(self.entropy_gradient)
        res_l = float(np.sqrt(grid_norm(grid, l_rho, work=spare) ** 2 + l_e**2))
        m_rho, m_e = self.dissipative(CotangentVector(self.fields.h_cells, 1.0))
        res_m = float(np.sqrt(grid_norm(grid, m_rho, work=spare) ** 2 + m_e**2))
        return res_l, res_m

