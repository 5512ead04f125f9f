"""Kinetic Fokker-Planck solver on a 2-D (q, p) grid.

Both relativistic variants, and at c = INFINITE the Kramers equation, are
driven by one right-hand side: a centered conservative transport term plus
a dissipative momentum flux written in equilibrium-weighted form,

    gamma theta D rhat grad_p(rho / rhat),   rhat ~ exp(-H/theta),

which keeps the grid-sampled Maxwellian an exact steady state of the
dissipative operator.  The excess-energy variable absorbs exactly the heat
the dissipative flux exchanges, so the coupled total energy is a linear
invariant of the semi-discretization.

A time step follows the GENERIC split dz/dt = L dE + M dS (Strang): half a
step of the dissipative part, one RK4 step of the transport alone (in
Horner form), and another dissipative half step.  The dissipative half step
is TR-BDF2 in flux form, its face flux one matmul with a precomputed flux
map, so mass telescopes, the total energy stays a linear invariant and the
Maxwellian stays a fixed point, each to round-off.

Only transport limits the step, and two steps derive from its velocities:
the split step's stability bound ``KfpOperator.stable_dt``, and the
smaller ``KfpOperator.transient_dt``, which bounds the Strang splitting
error.  ``integrate`` steps at the stability bound when it stops at
stationarity (``run_to_stationarity``), where only the end state counts,
and at the transient step otherwise.

Between two records the trailing half step of one step and the leading half
step of the next run back to back, so ``step_kfp(..., steps=n)`` merges each
such pair (Strang 1968): n steps cost D(h) [T D2]^(n-1) T D(h), with D2 the
exact composition D(h) D(h) applied as one flux-form update of length dt
through a second precomputed map.  The discrete scheme is the same; only
round-off moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import generic
from .errors import NonConvergenceError, PositivityError, StabilityError
from .generic import (DiagnosticsRecord, State, face_div_p, face_grad_p, faces_of,
                      grad_p, grad_q, inner)
from .grid import PhaseGrid, time_steps
from .model import (ModelParams, Potential, Variant, grid_fields, hamiltonian,
                    maxwellian)

NEGATIVE_TOL = -1e-12   # allowed undershoot per time step
TRBDF2_GAMMA = 2.0 - math.sqrt(2.0)   # the L-stable choice; its stages share one matrix


@dataclass(frozen=True)
class InitSpec:
    kind: str = "shifted-maxwellian"   # shifted-maxwellian | gaussian | uniform
    p0: float = 0.0
    q0: float = 0.0
    sigma_q: float = 1.0
    sigma_p: float = 1.0


@dataclass(frozen=True)
class KfpConfig:
    grid: PhaseGrid
    params: ModelParams
    potential: Potential
    variant: Variant
    dt: float | None          # None: the auto step of integrate
    t_final: float
    record_every: int
    init: InitSpec

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


class KfpOperator:
    """Precomputed grid fields for fast right-hand-side evaluation.

    H on cells, its face gradient, D on faces and the Boltzmann weight are
    the shared read-only arrays of ``model.grid_fields``; the transport holds
    minus its velocities over the stencils' 2h, ``q_rate = -dH/dp / (2 h_q)``
    and ``p_rate = dH/dq / (2 h_p)``.  The operator owns the workspace its
    kernels, the time step and, between steps, the ``RecordPass`` write into
    (five cell arrays) and the last substep's flux maps, so it must not be
    used by two threads at once; public methods return fresh arrays.
    """

    def __init__(self, grid: PhaseGrid, params: ModelParams, potential: Potential,
                 variant: Variant):
        self.grid, self.params, self.potential, self.variant = grid, params, potential, variant
        fields = grid_fields(grid, params, potential, variant)
        self.h_cells, self.gh_face, self.dface = fields.h_cells, fields.gh_face, fields.dface
        self.rhat, self.rhat_face = fields.rhat, fields.rhat_face
        gq_h, gp_h = grad_q(grid, self.h_cells), grad_p(grid, self.h_cells)
        speeds = [(float(np.abs(gp_h).max()), grid.hq), (float(np.abs(gq_h).max()), grid.hp)]
        self.q_rate = np.divide(gp_h, -2.0 * grid.hq, out=gp_h)
        self.p_rate = np.divide(gq_h, 2.0 * grid.hp, out=gq_h)
        # gamma theta D rhat on faces: one multiply per rhs evaluation
        self.diff_face = params.gamma * params.theta * self.dface * self.rhat_face
        self._row = int(np.argmin(self.h_cells[:, 0]))   # the row of least V
        self._tridiag = self._dissipative_matrix()
        rate = sum(v / h for v, h in speeds)
        self._stable_dt = 2.0 / rate if rate > 0 else math.inf
        if not (math.isfinite(self._stable_dt) and self._stable_dt > 0):
            raise StabilityError(f"the stability bound on dt is {self._stable_dt!r}; "
                                 "the parameters leave no usable time step")
        self._transient_dt = min(0.4 * h / v for v, h in speeds if v > 0)
        # the last substep length, and its flux map and pair map as they are built
        self._map_h, self._maps = None, []
        # workspace, one block freed in one piece: the density after the first
        # dissipative half step, the RK4 stage density, a record scratch array
        # and two kernel scratch arrays
        self._mid, self._stage, self._slope, self._work, self._work2 = \
            np.empty((5,) + grid.shape)

    def stable_dt(self) -> float:
        """Largest stable split step, 2 / (max|v_q|/h_q + max|F_p|/h_p).

        v_q = dH/dp and F_p = -dH/dq are the transport velocities.  RK4 is
        stable on the imaginary axis up to 2 sqrt(2); the centred transport's
        spectral radius lies below the sum of the two directional rates
        (13.23 against 13.54 on the 64x256 stationary_dmr grid); its
        one-sided momentum edges make it slightly non-skew (max Re lambda
        0.08 there), which the dissipative half steps damp.  On that grid the
        split step's largest eigenvalue moduli are 1, 1 and 0.961 at this
        step and stay <= 1 up to 1.75x it.  On small grids its spectral
        radius is at most 1 + 2e-14 for every variant, cosine and harmonic
        potentials and gamma from 0.05 to 20, and reaches 4.5 at twice the
        step (12x24, DMR, cosine, gamma = 0.05).  Momentum diffusion sets no
        bound; its half steps are L-stable.  ``step_kfp`` checks dt against
        this bound.
        """
        return self._stable_dt

    def transient_dt(self) -> float:
        """The step of transient runs, 0.4 min(h_q / max|v_q|, h_p / max|F_p|).

        It lies between 0.2x and 0.4x the stability bound and holds the
        Strang splitting error, not stability: on kfp_conserve the final L1
        distance to RK4 on the full right-hand side at a far smaller step is
        3.2e-5 at this step, 8.9e-5 at 1.6x it and 3.6e-4 at 3.3x (the
        stability bound there), against that test's bound of 1e-4.
        """
        return self._transient_dt

    def _dissipative_matrix(self):
        """Diagonals (lower, main, upper) of the dissipative operator on one q-row.

        d rho_j/dt = (F_j - F_j-1) / hp with F_j = diff_face_j (u_j+1 - u_j) / hp
        and u = rho / rhat.  Every q-row has the same matrix: D depends on p
        alone and the factor exp(-V(q)/theta) cancels from rhat_face / rhat.
        The row of least V is used.  lower[0] and upper[-1] are 0.
        """
        c = self.diff_face[self._row] / self.grid.hp**2
        r = self.rhat[self._row]
        tridiag = lower, main, upper = np.zeros((3, self.grid.Np))
        upper[:-1] = c / r[1:]
        lower[1:] = c / r[:-1]
        main[:-1] -= c / r[:-1]
        main[1:] -= c / r[1:]
        return tuple(_finite(tridiag, "operator's coefficients are"))

    def _map(self, h: float) -> np.ndarray:
        """The TR-BDF2 map W of a dissipative substep of length h, as a fresh array.

        With the matrix A of _dissipative_matrix and the stage weights
        d = gamma/2 and b = (1 - d)/2 of TR-BDF2 written as a stiffly
        accurate ESDIRK, the stages are Y2 = (I - d h A)^-1 (I + d h A) and
        Y3 = (I - d h A)^-1 (I + b h A (I + Y2)), and the substep is
        rho' = rho + h A W rho with W = b (I + Y2) + d Y3.  A r = 0 gives
        W r = r for a Maxwellian row r.  Built by Thomas sweeps over the
        columns of the identity; raises StabilityError when W is not finite.
        """
        lower, main, upper = self._tridiag
        d = 0.5 * TRBDF2_GAMMA
        b = 0.5 * (1.0 - d)
        n = self.grid.Np
        diag = np.arange(n)
        y2 = np.zeros((n, n))                       # I + d h A
        y2[diag, diag] = 1.0 + d * h * main
        y2[diag[1:], diag[:-1]] = d * h * lower[1:]
        y2[diag[:-1], diag[1:]] = d * h * upper[:-1]
        solve = (-d * h * lower, 1.0 - d * h * main, -d * h * upper)
        _thomas_inplace(*solve, y2)
        y2[diag, diag] += 1.0                       # I + Y2
        w_map = main[:, np.newaxis] * y2            # A (I + Y2)
        w_map[1:] += lower[1:, np.newaxis] * y2[:-1]
        w_map[:-1] += upper[:-1, np.newaxis] * y2[1:]
        w_map *= b * h
        w_map[diag, diag] += 1.0                    # I + b h A (I + Y2)
        _thomas_inplace(*solve, w_map)              # Y3
        w_map *= d
        w_map += np.multiply(y2, b, out=y2)
        return _finite(w_map, f"map of a substep of {h:g} is")

    def _flux_map(self, h: float, pair: bool = False) -> np.ndarray:
        """The flux map of a dissipative update, kept until h changes.

        A = Dv S, with S = diag(diff_face) face_grad_p diag(1/rhat) on the row
        of _dissipative_matrix and Dv face_div_p's matrix, so a substep is
        rho + face_div_p(B rho) with B = h S W; with ``pair`` two merged
        substeps, through B2 = 2h S W2 = 2B + (B Dv) B, as W2 = W + (h/2) W A W
        gives (I + h A W)^2 = I + 2h A W2.  B r = B2 r = 0 for a Maxwellian
        row r.  Raises StabilityError when the map is not finite.
        """
        if h != self._map_h:
            u_map = self._map(h)
            u_map /= self.rhat[self._row, :, np.newaxis]
            b_map = np.subtract(u_map[1:], u_map[:-1])
            b_map *= (h / self.grid.hp) * self.diff_face[self._row, :, np.newaxis]
            self._map_h, self._maps = h, [_finite(b_map, f"flux map of a substep of {h:g} is")]
        if pair and len(self._maps) == 1:
            b_map = self._maps[0]
            b_dv = np.subtract(b_map[:, :-1], b_map[:, 1:])   # B Dv
            b_dv /= self.grid.hp
            b_pair = np.matmul(b_dv, b_map)
            b_pair += b_map
            b_pair += b_map
            self._maps.append(_finite(b_pair, f"pair map of substeps of {h:g} is"))
        return self._maps[pair]

    def _flux_into(self, rho: np.ndarray) -> np.ndarray:
        """The dissipative face flux of rho, at the start of _work2."""
        u = np.divide(rho, self.rhat, out=self._work)
        flux = face_grad_p(self.grid, u, out=faces_of(self._work2))
        flux *= self.diff_face
        return flux

    def _transport_into(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """-div_q(rho v_q) - div_p(rho F_p) into out by generic's stencils, their
        1/(2h) held in q_rate and p_rate, so no pass divides; touches _work and _work2."""
        a = np.multiply(rho, self.q_rate, out=self._work)
        b = np.multiply(rho, self.p_rate, out=self._work2)
        np.subtract(a[2:], a[:-2], out=out[1:-1])   # periodic q difference
        np.subtract(a[1:2], a[-1:], out=out[:1])
        np.subtract(a[:1], a[-2:-1], out=out[-1:])
        # the p difference along the flattened rows, then div_p's one-sided
        # edges: 2 b0 + b1, b2 - 2 b0, 2 b-1 - b-3 and -2 b-1 - b-2
        d, flat = self._work, b.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=d.reshape(-1)[1:-1])
        d[:, 1] -= b[:, 0]
        d[:, -2] += b[:, -1]
        np.multiply(b[:, 0], 2.0, out=d[:, 0])
        d[:, 0] += b[:, 1]
        np.multiply(b[:, -1], -2.0, out=d[:, -1])
        d[:, -1] -= b[:, -2]
        out += d
        return out

    def _dissipate_into(self, rho: np.ndarray, h: float, out: np.ndarray,
                        pair: bool = False) -> float:
        """A dissipative substep of length h from rho into out (which may be rho).

        out = rho + face_div_p(F), with F = rho B^T through ``_flux_map``'s B
        (or B2 with ``pair``), k times the face flux for an update of length
        k.  Returns the energy the excess variable gains, sum(gh_face F) times
        the cell volume.  Touches _work and _work2.
        """
        flux = np.matmul(rho, self._flux_map(h, pair).T, out=faces_of(self._work2))
        prod = np.multiply(self.gh_face, flux, out=faces_of(self._work))
        de = float(np.sum(prod)) * self.grid.cell_volume
        if not math.isfinite(de):
            raise StabilityError(f"the dissipative energy exchange is {de!r}; "
                                 "check gamma, theta and the grid")
        np.add(rho, face_div_p(self.grid, flux, out=self._work), out=out)
        return de

    def _rhs_into(self, rho: np.ndarray, drho: np.ndarray) -> float:
        """Kernel of rhs: writes drho, returns de.  Only the workspace is touched."""
        self._transport_into(rho, drho)     # before the flux, which shares _work2
        flux = self._flux_into(rho)
        drho += face_div_p(self.grid, flux, out=self._work)
        prod = np.multiply(self.gh_face, flux, out=faces_of(self._work))
        return float(np.sum(prod)) * self.grid.cell_volume

    def dissipative_flux(self, rho: np.ndarray) -> np.ndarray:
        """gamma theta D rhat_f grad_p(rho/rhat) on interior momentum faces."""
        return self._flux_into(rho).copy()

    def dissipative_tendency(self, rho: np.ndarray) -> np.ndarray:
        return face_div_p(self.grid, self._flux_into(rho))

    def transport_tendency(self, rho: np.ndarray) -> np.ndarray:
        """div(rho J grad H) with the cell-centered adjoint-exact calculus."""
        return self._transport_into(rho, np.empty(self.grid.shape))

    def rhs(self, state: State):
        drho = np.empty(self.grid.shape)
        return drho, self._rhs_into(state.rho, drho)


def _thomas_inplace(lower, main, upper, b: np.ndarray) -> None:
    """Solve the tridiagonal system for every column of b at once, in place.

    No pivoting: the matrices here are I - d h A with A's off-diagonals
    nonnegative and its columns summing to zero, so they are column
    diagonally dominant.
    """
    n = main.size
    ratio = np.empty(n)
    den = main[0]
    for j in range(n):
        if j:
            den = main[j] - lower[j] * ratio[j - 1]
            b[j] -= lower[j] * b[j - 1]
        b[j] /= den
        ratio[j] = upper[j] / den
    for j in range(n - 2, -1, -1):
        b[j] -= ratio[j] * b[j + 1]


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, or a StabilityError naming the dissipative ``what`` if a is not finite."""
    if not np.all(np.isfinite(a)):
        raise StabilityError(f"the dissipative {what} not finite; check gamma, theta and the grid")
    return a


def _check_mass(name: str, mass: float) -> None:
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"{name} must have discrete mass 1, got {mass!r}")


def _support_gaps(rho_inf: np.ndarray, grid: PhaseGrid):
    """Check the mass of rho_inf; the mask of cells where it is not positive,
    or None when it is positive everywhere."""
    _check_mass("rho_inf", float(np.sum(rho_inf)) * grid.cell_volume)
    gaps = ~(rho_inf > 0.0)
    return gaps if gaps.any() else None


def _relative_entropy(rho: np.ndarray, rho_inf: np.ndarray, gaps, grid: PhaseGrid, *,
                      work: np.ndarray | None = None) -> float:
    """relative_entropy after the mass checks, with ``gaps`` from _support_gaps;
    its terms go into ``work`` when given."""
    pos = rho > 0.0
    if gaps is not None and np.any(pos & gaps):
        raise ValueError("rho_inf must be positive wherever rho is")
    # rho log(rho / rho_inf) where rho > 0, and 0 elsewhere
    contrib = np.divide(rho, rho_inf, out=work, where=pos)
    np.log(contrib, out=contrib, where=pos)
    np.multiply(rho, contrib, out=contrib, where=pos)
    np.copyto(contrib, 0.0, where=np.logical_not(pos, out=pos))
    return float(np.sum(contrib)) * grid.cell_volume


def relative_entropy(rho: np.ndarray, rho_inf: np.ndarray, grid: PhaseGrid) -> float:
    """sum rho log(rho/rho_inf) * cell volume, with 0 log 0 = 0; nonnegative."""
    _check_mass("rho", float(np.sum(rho)) * grid.cell_volume)
    return _relative_entropy(rho, rho_inf, _support_gaps(rho_inf, grid), grid)


def l1_distance(rho_a: np.ndarray, rho_b: np.ndarray, grid: PhaseGrid, *,
                work: np.ndarray | None = None) -> float:
    diff = np.subtract(rho_a, rho_b, out=work)
    return float(np.sum(np.abs(diff, out=diff))) * grid.cell_volume


class RecordPass:
    """The diagnostics record of a kinetic state, in one pass over preallocated arrays.

    Built once per run for an operator and the equilibrium rho_inf, whose
    mass and positivity it checks once.  Called on (state, t) it returns the
    DiagnosticsRecord and the aux entry {"l1", "dHrho_dt"}.  Each value comes
    from the public function that defines it (``KfpOperator.rhs``'s kernel,
    ``generic``'s functionals and ``Brackets.degeneracy_residuals``,
    ``relative_entropy``, ``l1_distance``), called with buffers, so it is
    the same bit for bit; one ``log_density`` feeds both S and dS, and one
    sum of rho both the mass and the relative entropy's mass check.  It
    writes only into the operator's five workspace arrays, which are free
    between ``step_kfp`` calls.
    """

    def __init__(self, op: KfpOperator, rho_inf: np.ndarray):
        self.op, self.rho_inf = op, rho_inf
        self.gaps = _support_gaps(rho_inf, op.grid)

    def __call__(self, state: State, t: float):
        op, rho = self.op, state.rho
        grid, params, potential = op.grid, op.params, op.potential
        drho, log_rho, work = op._mid, op._stage, op._slope
        de = op._rhs_into(rho, drho)        # touches _work and _work2
        generic.log_density(rho, out=log_rho)
        entropy = generic.entropy_functional(state, grid, params, log_rho=log_rho, work=work)
        v_s = generic.gradient_entropy(state, grid, params, log_rho=log_rho, out=log_rho)
        dsdt = inner(grid, v_s.xi, drho, work=work) + v_s.r * de
        brackets = generic.Brackets(state, grid, params, potential, op.variant,
                                    entropy_gradient=v_s,
                                    work=(drho, work, op._work, op._work2))
        deg_l, deg_m = brackets.degeneracy_residuals()
        mass = float(np.sum(rho)) * grid.cell_volume
        _check_mass("rho", mass)
        record = DiagnosticsRecord(
            t=t,
            E=generic.energy_functional(state, grid, params, potential, work=work),
            S=entropy,
            mass=mass,
            dSdt=dsdt,
            degL=deg_l,
            degM=deg_m,
            relEnt=_relative_entropy(rho, self.rho_inf, self.gaps, grid, work=work),
            e=state.e,
        )
        return record, {"l1": l1_distance(rho, self.rho_inf, grid, work=work),
                        "dHrho_dt": -de}


# ---------------------------------------------------------------------------
# initial states (discrete mass 1, zero initial excess)

def make_initial_state(init: InitSpec, grid: PhaseGrid, params: ModelParams,
                       potential: Potential) -> State:
    qv = grid.q_mesh[..., np.newaxis]
    pv = grid.p_mesh[..., np.newaxis]
    if init.kind == "shifted-maxwellian":
        h = hamiltonian(qv, pv - init.p0, params, potential)
        rho = np.exp(-(h - h.min()) / params.theta)
    elif init.kind == "gaussian":
        if init.sigma_q <= 0 or init.sigma_p <= 0:
            raise ValueError("gaussian init needs sigma_q > 0 and sigma_p > 0")
        rho = (np.exp(-0.5 * ((grid.q_mesh - init.q0) / init.sigma_q) ** 2)
               * np.exp(-0.5 * ((grid.p_mesh - init.p0) / init.sigma_p) ** 2))
    elif init.kind == "uniform":
        rho = np.ones(grid.shape)
    else:
        raise ValueError(f"unknown kfp initial condition kind '{init.kind}'")
    rho = rho / (float(np.sum(rho)) * grid.cell_volume)
    return State(rho=rho, e=0.0)


# ---------------------------------------------------------------------------
# time stepping

def _transport_rk4(r0: np.ndarray, op: KfpOperator, dt: float, rho: np.ndarray) -> None:
    """Classical RK4 on the transport alone, from r0 into rho (a distinct array).

    The transport T is linear and autonomous, so the RK4 step is the Taylor
    polynomial r0 + dt T(r0 + dt/2 T(r0 + dt/3 T(r0 + dt/4 T r0))), in
    Horner form: the stages run in the operator's _stage, and rho holds each
    slope.  Transport leaves e unchanged.
    """
    stage = op._stage
    op._transport_into(r0, rho)
    for scale in (0.25 * dt, dt / 3.0, 0.5 * dt):
        rho *= scale
        np.add(r0, rho, out=stage)
        op._transport_into(stage, rho)
    rho *= dt
    rho += r0


def _check_positive(rho: np.ndarray, update: int, steps: int) -> None:
    """Raise PositivityError naming the lowest cell if rho undershoots NEGATIVE_TOL;
    rho follows dissipative update ``update`` (1 to steps + 1) of a step_kfp call."""
    if rho.min() < NEGATIVE_TOL:
        iq, ip = np.unravel_index(np.argmin(rho), rho.shape)
        raise PositivityError(
            f"density undershoot {rho[iq, ip]:.3e} below {NEGATIVE_TOL:g} at cell "
            f"(q {iq}, p {ip}) after dissipative update {update} of {steps + 1} "
            f"of a {steps}-step call")


def step_kfp(state: State, op: KfpOperator, dt: float, steps: int = 1) -> State:
    """``steps`` GENERIC-split steps of the coupled (rho, e) system, positivity-guarded.

    One step is D(h) T D(h) with h = dt/2: a dissipative half step through
    the flux map, RK4 on the transport in Horner form, another half step.
    Adjacent half steps are merged, so the call makes D(h) [T D2]^(steps-1)
    T D(h), D2 through the pair map: steps + 1 dissipative updates.  The
    result equals that of ``steps`` single calls up to round-off, and with
    steps=1 it is the single step bit for bit.  Positivity is checked after
    each merged update and at the end; a PositivityError names the lowest
    cell and the update it followed.  All but the new density runs in the
    operator's workspace.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt > op.stable_dt() * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {op.stable_dt():g}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = 0.5 * dt
    e = state.e + op._dissipate_into(state.rho, h, op._mid)
    rho = np.empty(op.grid.shape)
    for update in range(2, steps + 1):
        _transport_rk4(op._mid, op, dt, rho)
        e += op._dissipate_into(rho, h, op._mid, pair=True)
        _check_positive(op._mid, update, steps)
    _transport_rk4(op._mid, op, dt, rho)
    e += op._dissipate_into(rho, h, rho)
    _check_positive(rho, steps + 1, steps)
    return State(rho=rho, e=e)


@dataclass
class KfpRunResult:
    records: list[DiagnosticsRecord]
    aux: list[dict]          # per-record extras: l1, dHrho_dt
    state: State
    rho_inf: np.ndarray
    e_inf: float
    t_end: float
    converged: bool


def integrate(cfg: KfpConfig, state0: State | None = None,
              l1_stop: float | None = None, on_record=None) -> KfpRunResult:
    """Advance the coupled system to t_final, recording diagnostics.

    Each record interval (``record_every`` steps, the last one shorter) is
    one ``step_kfp`` call, so its interior dissipative half steps merge.
    Stops early once the L1 distance to the closed-form Maxwellian falls
    below ``l1_stop``, when given.  ``on_record(state, t, index)`` fires
    after each diagnostics record.  Each record is one ``RecordPass`` over
    the operator's workspace, free between step_kfp calls, so a record
    allocates no grid array.  Without ``cfg.dt`` a run with ``l1_stop``
    needs only its end state and steps at the stability bound; any other
    run steps at the transient step.  A PositivityError or StabilityError
    from a step adds the time its record interval started from.
    """
    grid, params, potential, variant = cfg.grid, cfg.params, cfg.potential, cfg.variant
    op = KfpOperator(grid, params, potential, variant)
    rho_inf, _ = maxwellian(grid, params, potential)
    state = state0 if state0 is not None else make_initial_state(
        cfg.init, grid, params, potential)
    if cfg.dt is not None:
        dt = cfg.dt
    else:
        dt = op.stable_dt() if l1_stop is not None else op.transient_dt()

    e0_total = generic.energy_functional(state, grid, params, potential)
    record_pass = RecordPass(op, rho_inf)
    records: list[DiagnosticsRecord] = []
    aux: list[dict] = []

    def record(st: State):
        """Append the diagnostics of st; returns its L1 distance."""
        rec, extra = record_pass(st, t_now)
        records.append(rec)
        aux.append(extra)
        if on_record is not None:
            on_record(st, t_now, len(records) - 1)
        return extra["l1"]

    t_now = 0.0
    l1 = record(state)
    converged = l1_stop is not None and l1 <= l1_stop
    n_steps, step_dt = time_steps(cfg.t_final, dt)
    done = 0
    while not converged and done < n_steps:
        steps = min(cfg.record_every, n_steps - done)
        try:
            state = step_kfp(state, op, step_dt, steps=steps)
        except (PositivityError, StabilityError) as exc:
            msg = f"{exc}, in the record interval from t = {t_now!r}"
            raise type(exc)(msg) from None
        done += steps
        t_now = cfg.t_final if done == n_steps else done * step_dt
        l1 = record(state)
        converged = l1_stop is not None and l1 <= l1_stop
    e_inf = e0_total - inner(grid, op.h_cells, rho_inf)
    return KfpRunResult(records=records, aux=aux, state=state, rho_inf=rho_inf,
                        e_inf=e_inf, t_end=t_now, converged=converged)


def run_to_stationarity(cfg: KfpConfig, l1_target: float = 1e-3,
                        state0: State | None = None, on_record=None) -> KfpRunResult:
    """Integrate until the density is within l1_target of the Maxwellian.

    Raises NonConvergenceError when t_final is reached with an L1 distance
    above ten times the target.
    """
    result = integrate(cfg, state0=state0, l1_stop=l1_target, on_record=on_record)
    if not result.converged and result.aux[-1]["l1"] > 10.0 * l1_target:
        raise NonConvergenceError(
            f"L1 distance {result.aux[-1]['l1']:.3e} still above 10 x "
            f"{l1_target:g} at t={result.t_end:g}")
    return result
