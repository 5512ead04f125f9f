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
step of the dissipative part, one step of the transport alone, and another
dissipative half step.  The transport step is a polynomial in the linear
transport operator, in Horner form: classical RK4 up to RK4's bound, and
beyond it a 6-stage second-order polynomial of imaginary reach 4.07 that
damps the axis below it and steps at up to LONG_REACH = 2 times that bound.
The dissipative half step is TR-BDF2, W = K (d I + 2b K), its resolvent K =
R (R + d h Lap)^-1 from R = diag(rhat) and the flux's own face couplings, in
flux form: its face flux is one matmul with a precomputed flux map, so mass
telescopes, the total energy stays a linear invariant and the Maxwellian
stays a fixed point, each to round-off, at any h.

Only transport limits the step, and two steps derive from its velocities:
the split step's stability bound ``KfpOperator.stable_dt``, a 6-stage
step, and the smaller ``KfpOperator.transient_dt``, an RK4 step that bounds
the Strang splitting error.  ``integrate`` steps at the stability
bound when it stops at stationarity (``l1_stop``), where only the end
state counts, and at the transient step otherwise.  A stationary run ends
at the first split step whose end state meets its L1 target, between
records as well as at them, or at t_final with ``converged`` false.

Between two records the trailing half step of one step and the leading half
step of the next run back to back, so ``step_kfp(..., steps=n)`` merges each
such pair (Strang 1968): n steps cost D(h) [T D2]^(n-1) T D(h), with D2 the
exact composition D(h) D(h) applied as one flux-form update of length dt
through a second precomputed map.  The discrete scheme is the same; only
round-off moves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import generic
from .errors import PositivityError, StabilityError
from .generic import DiagnosticsRecord, State, faces_of, grad_p, grad_q, inner
from .grid import PhaseGrid, face_div_p, face_grad_p, time_steps, unit_mass
from .model import (ModelParams, Potential, Variant, grid_fields, hamiltonian,
                    maxwellian)

NEGATIVE_TOL = -1e-12   # allowed undershoot per time step
TRBDF2_GAMMA = 2.0 - math.sqrt(2.0)   # the L-stable choice; its stages share one matrix
_RATE_MAX = 1e140       # the fastest rate, per unit time, of a mass-1 density's tendency
# past RK4's bound the transport step is the second-order polynomial 1 + z + z^2/2
# + a3 z^3 + ... + a6 z^6 with these a1 to a6, from a small minimax design:
# |p(iy)| <= 1 for |y| <= 4.07, and a3 > 1/6 damps Im z in [1.2, 2], where the
# momentum edges' modes sit; the split step's bound is LONG_REACH times RK4's
# (KfpOperator.stable_dt)
LONG_COEFFICIENTS = (1.0, 0.5, 0.2331753901, 0.06043648118, 0.01130754793, 0.002074479269)
LONG_REACH = 2.0
# its Horner ratios a_k / a_(k-1), k = 6 down to 2
_LONG_RATIOS = tuple(hi / lo for lo, hi in zip(LONG_COEFFICIENTS, LONG_COEFFICIENTS[1:]))[::-1]
# numpy stays silent while the operator and its maps are built: each result is
# checked, and a StabilityError names the one that is not finite
_reported = partial(np.errstate, divide="ignore", over="ignore", invalid="ignore")


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
        # rho / rhat of a density of mass 1 reaches 1 / (cell volume min rhat); the
        # flux takes its face gradient (over hp), and the brackets weight it by D
        rhat_min, reach = float(self.rhat.min()), max(1.0 / grid.hp, float(self.dface.max()))
        if not grid.cell_volume * rhat_min * sys.float_info.max > reach:
            raise StabilityError(f"the dissipative flux overflows: the Boltzmann weight falls "
                                 f"to {rhat_min:.3e} on cells of volume {grid.cell_volume:.3e}; "
                                 "raise model.theta or rescale the grid")
        self._row = int(np.argmin(self.h_cells[:, 0]))   # the row of least V
        with _reported():                   # checked by the couplings and the rate gates
            gq_h, gp_h = grad_q(grid, self.h_cells), grad_p(grid, self.h_cells)
            speeds = [(float(np.abs(gp_h).max()), grid.hq), (float(np.abs(gq_h).max()), grid.hp)]
            # gamma theta D rhat on faces: one multiply per rhs evaluation
            self.diff_face = params.gamma * params.theta * self.dface * self.rhat_face
            # the face couplings of _map's row, and its fastest rate (c_j-1 + c_j) / rhat_j
            self._coupling = _finite(self.diff_face[self._row] / grid.hp**2,
                                     "operator's coefficients are")
            c = np.pad(self._coupling, 1)
            diffusion = float(np.max((c[:-1] + c[1:]) / self.rhat[self._row]))
        rate = sum(v / h for v, h in speeds)
        if not rate > 0:
            raise StabilityError("the transport rate on the grid is 0, so nothing moves: H "
                                 "takes one value on every cell, as when m c^2 swamps |p|^2 / "
                                 "2m; check model.m, model.c and the potential")
        self._rk4_dt = 2.0 / rate
        self._stable_dt = LONG_REACH * self._rk4_dt
        # a mass-1 density reaches 1 / cell volume; its tendencies (at most the fastest
        # rate times that), their squares in the records and the energy the flux
        # exchanges (at most the product of the two rates) must all stay finite
        fastest = max(rate, 2.0 * diffusion)
        if not fastest < _RATE_MAX * min(1.0, grid.cell_volume):
            raise StabilityError(f"the tendencies overflow: the transport or momentum diffusion "
                                 f"rate {fastest:.3e} on cells of volume {grid.cell_volume:.3e} "
                                 "is too fast; check model.m, model.gamma and the grid")
        self.q_rate = np.divide(gp_h, -2.0 * grid.hq, out=gp_h)
        self.p_rate = np.divide(gq_h, 2.0 * grid.hp, out=gq_h)
        self._transient_dt = min(0.4 * h / v for v, h in speeds if v > 0)
        # the last substep length, and its flux map and pair map as they are built
        self._map_h, self._maps = None, []
        # workspace, one block freed in one piece: the density after the first
        # dissipative half step, the RK4 stage density, a record scratch array
        # and two kernel scratch arrays
        self._mid, self._stage, self._slope, self._work, self._work2 = \
            np.empty((5,) + grid.shape)

    def stable_dt(self) -> float:
        """Largest stable split step: LONG_REACH times RK4's bound
        2 / (max|v_q|/h_q + max|F_p|/h_p).

        v_q = dH/dp and F_p = -dH/dq are the transport velocities.  The
        centred transport's spectral radius lies below the sum of the two
        directional rates (13.23 against 13.54 on the 64x256 stationary
        grids, which DMR and DH share), so |dt lambda| <= 3.91 at this step,
        inside the 6-stage polynomial's imaginary reach of 4.07 (RK4's is
        2 sqrt(2)).  Its one-sided momentum edges make it slightly non-skew
        (max Re lambda 0.08 there), which the dissipative half steps and the
        polynomial's damping hold down (|p(1.7i)| = 0.72, RK4's 0.89).  The
        polynomial is second order, as the Strang split is: every third- and
        fourth-order design of 6 to 10 stages tried, of reach 3.4 to 8, was
        unstable on the small grids below, the longer ones just above RK4's
        bound.  On the 64x256 stationary_dmr grid the split step's largest
        eigenvalue moduli are 1, 1 and 0.923 at this step (0.961 at RK4's
        bound); they stay <= 1 up to 2.6x RK4's bound and reach 1.37 at
        2.8x.  On the small grids of the stability tests its spectral radius
        is at most 1 + 2e-14 from RK4's bound to this step for every variant,
        cosine and harmonic potentials and gamma from 0.05 to 20, and
        reaches 195 at twice the step (12x24, DMR, cosine, gamma = 0.05).
        The bound is no higher because positivity, not stability, gives out
        first: on the under-resolved 16x32 DH grid with Pmax = 34 a step of
        2.17x RK4's bound ends in a PositivityError, and 2x passes.
        Momentum diffusion sets no bound; its half steps are L-stable.
        ``step_kfp`` checks dt against this bound.
        """
        return self._stable_dt

    def transient_dt(self) -> float:
        """The step of transient runs, 0.4 min(h_q / max|v_q|, h_p / max|F_p|).

        It lies between 0.2x and 0.4x RK4's bound, so its steps are RK4's,
        and holds the Strang splitting error, not stability: on kfp_conserve
        the final L1 distance to RK4 on the full right-hand side at a far
        smaller step is 3.2e-5 at this step, 8.9e-5 at 1.6x it, 3.6e-4 at
        3.3x (RK4's bound there) and 1.1e-3 at 6.5x (the stability bound,
        which t_final = 1 cuts to two 6-stage steps of 4.5x), against that
        test's bound of 1e-4.
        """
        return self._transient_dt

    def _map(self, h: float) -> np.ndarray:
        """The TR-BDF2 map W of a dissipative substep of length h, as a fresh array.

        On a q-row, d rho_j/dt = (F_j - F_j-1) / hp with F_j = diff_face_j
        (u_j+1 - u_j) / hp and u = rho / rhat: A = -Lap R^-1, R = diag(rhat)
        and Lap the Laplacian of the couplings c = diff_face / hp^2.  Every
        q-row has the same A (D depends on p alone and exp(-V/theta) cancels
        from rhat_face / rhat); the row of least V is used.  With TR-BDF2's
        weights d = gamma/2, b = (1 - d)/2 as a stiffly accurate ESDIRK and K =
        (I - d h A)^-1, the stages are Y2 = K (I + d h A) and Y3 = K (I + b h A
        (I + Y2)), and rho' = rho + h A W rho with W = b (I + Y2) + d Y3 = K (d I
        + 2b K), as I + Y2 = 2K, h A K = (K - I)/d and 2b + d = 1 (Bank et al.
        1985).  K = R (R + d h Lap)^-1, and the symmetric R + d h Lap maps 1 to
        rhat exactly, as Lap 1 = 0 by its form: no rounded diagonal of A enters,
        so K r = r and W r = r for a Maxwellian row r at any h.  Raises
        StabilityError when W is not finite.
        """
        r = self.rhat[self._row]
        d = 0.5 * TRBDF2_GAMMA
        tc = (d * h) * self._coupling
        w_map = np.diag(np.full(self.grid.Np, 1.0 - d))   # 2b I, one n x n array
        for shift in (0.0, d):            # K (2b I) = 2b K, then K (d I + 2b K)
            w_map.flat[::self.grid.Np + 1] += shift
            _solve_inplace(r, tc, w_map)
            w_map *= r[:, np.newaxis]
        return _finite(w_map, f"map of a substep of {h:g} is")

    def _flux_map(self, h: float, pair: bool = False) -> np.ndarray:
        """The flux map of a dissipative update, kept until h changes.

        A = Dv S, with S = diag(diff_face) face_grad_p diag(1/rhat) on the row
        of _map and Dv face_div_p's matrix, so a substep is rho + face_div_p(B
        rho) with B = h S W; with ``pair`` two merged substeps, through B2 =
        2h S W2 = 2B + (B Dv) B, as W2 = W + (h/2) W A W gives (I + h A W)^2 =
        I + 2h A W2.  B r = B2 r = 0 for a Maxwellian row r.  Raises
        StabilityError when the map is not finite.
        """
        if h != self._map_h:
            with _reported():
                u_map = self._map(h)
                u_map /= self.rhat[self._row, :, np.newaxis]
                b_map = np.subtract(u_map[1:], u_map[:-1])
                b_map *= (h / self.grid.hp) * self.diff_face[self._row, :, np.newaxis]
            self._map_h, self._maps = h, [_finite(b_map, f"flux map of a substep of {h:g} is")]
        if pair and len(self._maps) == 1:
            b_map = self._maps[0]
            with _reported():
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

    def transport_tendency(self, rho: np.ndarray) -> np.ndarray:
        """div(rho J grad H) with the cell-centered adjoint-exact calculus."""
        return self._transport_into(rho, np.empty(self.grid.shape))

    def rhs(self, state: State):
        drho = np.empty(self.grid.shape)
        return drho, self._rhs_into(state.rho, drho)


def _solve_inplace(r: np.ndarray, tc: np.ndarray, b: np.ndarray) -> None:
    """Solve (diag(r) + Lap) x = b for every column of b at once, in place.

    Lap is the Laplacian of the face couplings tc, so row j sums to r_j > 0,
    and elimination keeps such row sums (Grassmann, Taksar & Heyman 1985):
    the pivots are p_j = e_j + tc_j with e_j = r_j + (tc_j-1 / p_j-1) e_j-1,
    sums of positive terms, so no diagonal is formed and no pivot cancels
    however far tc exceeds r; both sweeps scale by tc_j / p_j in [0, 1].
    """
    pivot, ratio, e = np.empty(r.size), np.empty(tc.size), r[0]
    for j, t in enumerate(tc):
        pivot[j] = e + t
        ratio[j] = t / pivot[j]
        e = r[j + 1] + ratio[j] * e
        b[j + 1] += ratio[j] * b[j]
    pivot[-1] = e
    b /= pivot[:, np.newaxis]
    for j in range(tc.size - 1, -1, -1):
        b[j] += ratio[j] * b[j + 1]


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, or a StabilityError naming the dissipative ``what`` if a is not finite."""
    if not np.all(np.isfinite(a)):
        raise StabilityError(f"the dissipative {what} not finite; check gamma, theta and the grid")
    return a


def _check_mass(name: str, mass: float) -> None:
    if not abs(mass - 1.0) <= 1e-6:                 # NaN fails too
        raise ValueError(f"{name} must have discrete mass 1, got {mass!r}")


def _relative_entropy(rho: np.ndarray, rho_inf: np.ndarray, grid: PhaseGrid, *,
                      work: np.ndarray | None = None) -> float:
    """relative_entropy after its checks; its terms go into ``work`` when given."""
    pos = rho > 0.0
    # rho log(rho / rho_inf) where rho > 0, and 0 elsewhere
    contrib = np.divide(rho, rho_inf, out=work, where=pos)
    np.log(contrib, out=contrib, where=pos)
    np.multiply(rho, contrib, out=contrib, where=pos)
    np.copyto(contrib, 0.0, where=np.logical_not(pos, out=pos))
    return float(np.sum(contrib)) * grid.cell_volume


def relative_entropy(rho: np.ndarray, rho_inf: np.ndarray, grid: PhaseGrid) -> float:
    """sum rho log(rho/rho_inf) * cell volume, with 0 log 0 = 0; nonnegative."""
    _check_mass("rho", float(np.sum(rho)) * grid.cell_volume)
    _check_mass("rho_inf", float(np.sum(rho_inf)) * grid.cell_volume)
    if np.any((rho > 0.0) & ~(rho_inf > 0.0)):
        raise ValueError("rho_inf must be positive wherever rho is")
    return _relative_entropy(rho, rho_inf, grid)


def l1_distance(rho_a: np.ndarray, rho_b: np.ndarray, grid: PhaseGrid, *,
                work: np.ndarray | None = None) -> float:
    diff = np.subtract(rho_a, rho_b, out=work)
    return float(np.sum(np.abs(diff, out=diff))) * grid.cell_volume


class RecordPass:
    """The diagnostics record of a kinetic state, in one pass over preallocated arrays.

    Built once per run for an operator and the equilibrium rho_inf, whose
    mass and positivity it checks once.  Called on (state, t) it returns the
    DiagnosticsRecord, ``l1`` and ``dHrho_dt`` included.  Each value comes
    from the public function that defines it (``KfpOperator.rhs``'s kernel,
    ``generic``'s functionals and ``Brackets.degeneracy_residuals``,
    ``relative_entropy``, ``l1_distance``), called with buffers, so it is
    the same bit for bit; one ``log_density`` feeds both S and dS, and one
    sum of rho both the mass and the relative entropy's mass check.  It
    writes only into the operator's five workspace arrays, which are free
    between ``step_kfp`` calls.
    """

    def __init__(self, op: KfpOperator, rho_inf: np.ndarray):
        _check_mass("rho_inf", float(np.sum(rho_inf)) * op.grid.cell_volume)
        if not np.all(rho_inf > 0.0):
            raise ValueError("rho_inf must be positive on every cell")
        self.op, self.rho_inf = op, rho_inf

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
        return DiagnosticsRecord(
            t=t,
            E=generic.energy_functional(state, grid, params, potential, work=work),
            S=entropy,
            mass=mass,
            dSdt=dsdt,
            degL=deg_l,
            degM=deg_m,
            relEnt=_relative_entropy(rho, self.rho_inf, grid, work=work),
            e=state.e,
            l1=l1_distance(rho, self.rho_inf, grid, work=work),
            dHrho_dt=-de,
        )


# ---------------------------------------------------------------------------
# initial states (discrete mass 1, zero initial excess)

def make_initial_state(init: InitSpec, grid: PhaseGrid, params: ModelParams,
                       potential: Potential) -> State:
    """``init``'s density on the cells at discrete mass 1 (an overflowing exponent takes
    the limit 0); ValueError when it has no finite positive mass on the grid."""
    qv = grid.q_mesh[..., np.newaxis]
    pv = grid.p_mesh[..., np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):     # the mass below names a NaN
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
        return State(rho=unit_mass(rho, grid.cell_volume, f"the {init.kind} initial density",
                                   "the init keys, grid.lq and grid.pmax"), e=0.0)


# ---------------------------------------------------------------------------
# time stepping

def _horner_scales(op: KfpOperator, dt: float) -> tuple:
    """The inner Horner scales of the transport step dt: RK4's dt/4, dt/3, dt/2,
    and above RK4's bound the long step's (a_k / a_(k-1)) dt, k = 6 down to 2."""
    if dt <= op._rk4_dt:
        return (0.25 * dt, dt / 3.0, 0.5 * dt)
    return tuple(ratio * dt for ratio in _LONG_RATIOS)


def _transport_step(r0: np.ndarray, op: KfpOperator, dt: float, rho: np.ndarray) -> None:
    """One step of the transport alone, from r0 into rho (a distinct array).

    The transport T is linear and autonomous, so classical RK4 is the Taylor
    polynomial r0 + dt T(r0 + dt/2 T(r0 + dt/3 T(r0 + dt/4 T r0))), in
    Horner form: the stages run in the operator's _stage, and rho holds each
    slope.  A step beyond RK4's bound takes the 6-stage second-order
    polynomial of LONG_COEFFICIENTS, of imaginary reach 4.07 (Kinnmark &
    Gray 1984; Ketcheson & Ahmadia 2012), the same loop with five scales
    (``_horner_scales``) and six evaluations.  Any polynomial in T keeps
    mass and energy, as 1^T T = H^T T = 0.  Transport leaves e unchanged.
    """
    stage = op._stage
    op._transport_into(r0, rho)
    for scale in _horner_scales(op, dt):
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


def step_kfp(state: State, op: KfpOperator, dt: float, steps: int = 1,
             stop: tuple[np.ndarray, float] | None = None):
    """``steps`` GENERIC-split steps of the coupled (rho, e) system, positivity-guarded.

    One step is D(h) T D(h) with h = dt/2: a dissipative half step through
    the flux map, the transport step (``_transport_step``: RK4, or above
    RK4's bound the 6-stage polynomial), another half step.
    Adjacent half steps are merged, so the call makes D(h) [T D2]^(steps-1)
    T D(h), D2 through the pair map: steps + 1 dissipative updates.  The
    result equals that of ``steps`` single calls up to round-off, and with
    steps=1 it is the single step bit for bit.  Positivity is checked after
    each merged update and at the end; a PositivityError names the lowest
    cell and the update it followed.  All but the new density runs in the
    operator's workspace.

    With ``stop = (rho_inf, l1_stop)`` the call returns (state, k), k the
    first step whose end state E is within l1_stop of rho_inf in L1.  After
    each interior merged update it probes the L1 distance of the merged
    state D(h) E (into the free _slope); only when that is within l1_stop
    does it form E, in place of the transported density, by the update that
    ends a k-step call, so the stop state is that call's bit for bit and a
    call that does not stop keeps its bits.  D(h) contracts the L1 distance
    to its fixed point, the Maxwellian, where its map is positive, so the
    probe misses no stop there: L1(D(h) E) / L1(E) is 0.60-0.97 on the 32x64
    grids of the stop tests and 0.88-0.99 on both committed stationary
    configs.  Where it does not, the run stops at a later step or record.
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
        _transport_step(op._mid, op, dt, rho)
        de = op._dissipate_into(rho, h, op._mid, pair=True)
        if stop is not None and l1_distance(op._mid, stop[0], op.grid,
                                            work=op._slope) <= stop[1]:
            end = e + op._dissipate_into(rho, h, rho)   # step update - 1's end state
            if l1_distance(rho, stop[0], op.grid, work=op._slope) <= stop[1]:
                _check_positive(rho, update, steps)
                return State(rho=rho, e=end), update - 1
        _check_positive(op._mid, update, steps)
        e += de
    _transport_step(op._mid, op, dt, rho)
    e += op._dissipate_into(rho, h, rho)
    _check_positive(rho, steps + 1, steps)
    return State(rho=rho, e=e) if stop is None else (State(rho=rho, e=e), steps)


@dataclass
class KfpRunResult:
    records: list[DiagnosticsRecord]
    state: State
    rho_inf: np.ndarray
    e_inf: float
    converged: bool
    steps: int                  # split steps
    evaluations: int            # transport evaluations of the stepping: 4 per RK4 step, 6 above
    dt: float                   # the split step taken
    dt_from: str                # what set it: solver.dt, stable_dt or transient_dt


def integrate(cfg: KfpConfig, state0: State | None = None,
              l1_stop: float | None = None, on_record=None) -> KfpRunResult:
    """Advance the coupled system to t_final, recording diagnostics.

    Each record interval (``record_every`` steps, the last one shorter) is
    one ``step_kfp`` call, so its interior dissipative half steps merge.
    With ``l1_stop`` the run stops at the first step whose state is within
    l1_stop of the closed-form Maxwellian in L1, whatever the cadence: the
    interval's ``step_kfp`` call tests each of its steps and ends at that
    one, and the stop state is recorded at its own time, (done + k) dt, as
    any record is.  A run that reaches t_final outside l1_stop returns as
    well, with ``converged`` false.  ``on_record(state, t, index)`` is called
    after each record with its time and its index in ``records``, counted
    from 0; its return value is ignored.  Each record is one ``RecordPass`` over
    the operator's workspace, free between step_kfp calls, so a record
    allocates no grid array.  Without ``cfg.dt`` a run with ``l1_stop``
    needs only its end state and steps at the stability bound; any other
    run steps at the transient step.  A PositivityError or StabilityError
    from a step adds the time its record interval started from.  The result
    counts the split steps taken and their transport evaluations; it holds the
    split step, what set it (``dt_from``: ``solver.dt``, ``stable_dt`` or
    ``transient_dt``), and ``e_inf``, the first record's E less int H rho_inf.
    """
    grid, params, potential, variant = cfg.grid, cfg.params, cfg.potential, cfg.variant
    op = KfpOperator(grid, params, potential, variant)
    rho_inf, _ = maxwellian(grid, params, potential)
    state = state0 if state0 is not None else make_initial_state(
        cfg.init, grid, params, potential)
    dt, dt_from = ((cfg.dt, "solver.dt") if cfg.dt is not None else
                   (op.stable_dt(), "stable_dt") if l1_stop is not None else
                   (op.transient_dt(), "transient_dt"))
    record_pass = RecordPass(op, rho_inf)
    records: list[DiagnosticsRecord] = []

    def record(st: State) -> bool:
        """Append the diagnostics of st; whether its L1 distance meets l1_stop."""
        records.append(rec := record_pass(st, t_now))
        if on_record is not None:
            on_record(st, t_now, len(records) - 1)
        return l1_stop is not None and rec.l1 <= l1_stop

    t_now = 0.0
    converged = record(state)
    n_steps, step_dt = time_steps(cfg.t_final, dt)
    done = 0
    while not converged and done < n_steps:
        steps = min(cfg.record_every, n_steps - done)
        try:
            if l1_stop is None:
                state = step_kfp(state, op, step_dt, steps=steps)
            else:
                state, steps = step_kfp(state, op, step_dt, steps=steps,
                                        stop=(rho_inf, l1_stop))
        except (PositivityError, StabilityError) as exc:
            msg = f"{exc}, in the record interval from t = {t_now!r}"
            raise type(exc)(msg) from None
        done += steps
        t_now = cfg.t_final if done == n_steps else done * step_dt
        converged = record(state)
    e_inf = records[0].E - inner(grid, op.h_cells, rho_inf)
    evaluations = done * (len(_horner_scales(op, step_dt)) + 1)
    return KfpRunResult(records=records, state=state, rho_inf=rho_inf, e_inf=e_inf,
                        converged=converged, steps=done, evaluations=evaluations,
                        dt=step_dt, dt_from=dt_from)
