"""Flux-limited heat equation on a periodic line.

The density flux saturates at c * (face density), which removes the
infinite propagation speed of classical diffusion; with c = INFINITE the
scheme reduces to the standard second-order discretization of the heat
equation.  The same right-hand side can be assembled from the convex
dissipation potential, and the two assemblies are compared in the tests.

The flux at face i+1/2 is F = (nu / h) G in undivided, ratio form
(``_flux``): G = r d, d = rho_{i+1} - rho_i, with the ratio of the face
diffusivity to nu r = s / hypot(s, kappa d) in [0, 1], s = rho_i +
rho_{i+1} and kappa = 2 nu / (c h).  Forward Euler steps rho + lam
(G_{i+1/2} - G_{i-1/2}), lam = dt nu / h^2 <= 1/2, at up to ``stable_dt``;
there the Euler map is doubly stochastic, so every step keeps the density
nonnegative, obeys the min/max principle, conserves mass and does not
lower the Boltzmann entropy.

A saturated flux still moves mass one cell per explicit step, so by itself
the three-point scheme would carry mass into vacuum far faster than c when
dt is set by diffusion.  The exact flow obeys
supp rho(t) ⊂ supp rho0 + B(c t) (Andreu, Caselles, Mazón & Moll, ARMA
2006), and the stepper enforces it with a light-cone gate: when data with
exact-zero cells are first stepped, ``light_cone`` records for every face
the time ``t0 + dist(face, supp rho0) / c`` at which the cone reaches it,
the state carries that array, and the flux on every face the cone has not
yet reached is set to zero.  Zeroing a face keeps mass telescoped exactly,
keeps that face's entropy production nonnegative and never raises |F|
above c rbar.  Vacuum-free data and c = INFINITE open every face from the
start, so there the scheme is the ungated one, bit for bit.

One private kernel, ``_step_into``, makes every Euler step and every
stage of a superstep, for ``step_heat`` and ``run_heat`` alike, in a
workspace (``_Workspace``) that binds lam and kappa once per chain and
whose density rows end in a ghost copy of cell 0.  A stage evaluates the
ungated flux once (``_flux``, which also serves ``face_flux``,
``heat_rhs`` and ``saturation_excess``), multiplies it by the open faces,
takes the divergence and checks positivity and finiteness.

``run_heat`` takes supersteps: a step tau of s stages, s = 1 (forward
Euler, as ``step_heat``) up to ``stable_dt``, else the fewest stages s >= 2
of the second-order Runge-Kutta-Legendre scheme (RKL2; Meyer, Balsara &
Aslam, MNRAS 422, 2102 (2012) and J. Comput. Phys. 257, 594 (2014)) whose
reach (s^2 + s - 2) / 4 ``stable_dt`` covers tau, up to ``_S_MAX`` stages.
The first stage is an Euler step at no more than ``stable_dt``, and each
later one takes the recursion's weighted sum of earlier stages and their
divergences, which has negative weights: for s > 1 positivity is checked
on every stage, flux saturation on every stage's flux and the entropy on
every superstep, not proved.  The light-cone
gate is set at each superstep's start.  The checks of a block of states
come together from the kept flux, bit for bit the values of the per-state
calls.  A workspace serves one chain at a time, so it is not thread-safe;
``run_heat`` makes its own, and states it hands out never alias it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, StabilityError
from .generic import DiagnosticsRecord, log_density
from .grid import LineGrid, time_steps, unit_mass
from .model import ModelParams

NEGATIVE_TOL = -1e-14   # strictest allowed undershoot per explicit step
_LOW_KAPPA_MARGIN = 1.0 - 2.0**-20   # stable_dt below h^2/(2 nu) where kappa < 4
_BLOCK = 8              # states whose entropy and saturation are checked together
_TINY = math.ulp(0.0)   # smallest positive double: moves no face mean above 1e-307
_KAPPA_MAX = 1e150      # (kappa q)^2 stays below about 1e300 for |q| <= 1
_S_MAX = 16             # most stages of a superstep: a reach of 67.5 stable_dt
_SUPERSTEP_RHO_MAX = 1e306   # the RKL2 sums (weights up to about 2) stay finite below it


# the cone of a chain with no closed face: nothing to gate
ALL_OPEN = np.empty(0)


@dataclass(frozen=True)
class HeatState:
    """Density and time; ``cone`` is the per-face arrival time of the light
    cone (see ``light_cone``), None until the first step records it and
    ``ALL_OPEN`` once every face is open."""

    rho: np.ndarray
    t: float
    cone: np.ndarray | None = None


# ---------------------------------------------------------------------------
# periodic neighbours

def _ghost_cell(a: np.ndarray) -> np.ndarray:
    """a followed by a ghost copy of a[0]: [1:] is a[i+1] on the periodic line."""
    return np.concatenate((a, a[:1]))


def _ghost_face(a: np.ndarray) -> np.ndarray:
    """a led by a ghost copy of a[-1]: [:-1] is a[i-1] on the periodic line."""
    return np.concatenate((a[-1:], a))


# ---------------------------------------------------------------------------
# dissipation potential

def flux_potential(z, params: ModelParams):
    """phi*(z) = (c^2/nu^2) (sqrt(1 + (nu^2/c^2) |z|^2) - 1); convex, phi*(0)=0,
    and exactly |z|^2 / 2, the classical potential, at c = INFINITE."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    a = np.abs(z)
    # rationalized, stable for |z| nu/c << 1; hypot keeps it finite for every finite z
    return a * (a / (1.0 + np.hypot(1.0, (params.nu / params.c) * z)))


def saturating_flux(z, params: ModelParams):
    """grad phi*(z) = z / sqrt(1 + (nu^2/c^2) |z|^2); norm bounded by c/nu,
    and exactly z at c = INFINITE."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return z / np.hypot(1.0, (params.nu / params.c) * z)


def dissipation_potential(rho: np.ndarray, xi: np.ndarray, grid: LineGrid,
                          params: ModelParams) -> float:
    """K(rho; xi) = nu * sum rho phi*(grad xi) h, face gradients averaged to cells."""
    cells = _ghost_cell(xi)
    g = _ghost_face((cells[1:] - cells[:-1]) / grid.h)   # face i+1/2 at g[i+1]
    z = 0.5 * (g[1:] + g[:-1])                           # average of the two cell faces
    return params.nu * float(np.sum(rho * flux_potential(z, params))) * grid.h


# ---------------------------------------------------------------------------
# right-hand side

def _gate(flux: np.ndarray, reached) -> np.ndarray:
    return flux if reached is None else np.where(reached, flux, 0.0)


def _kappa(grid: LineGrid, params: ModelParams):
    """kappa = 2 nu / (c h) of the ratio form (``_flux``); None at c = INFINITE.
    A StabilityError names kappa above ``_KAPPA_MAX``, where (kappa q)^2 could
    overflow for a face ratio |q| <= 1."""
    if params.classical:
        return None
    kappa = 2.0 * params.nu / (params.c * grid.h) if params.c * grid.h > 0 else math.inf
    if not kappa <= _KAPPA_MAX:
        raise StabilityError(f"the flux ratio kappa = 2 nu / (c h) is {kappa:.3e}, above "
                             f"{_KAPPA_MAX:.0e}; raise model.c or grid.length, or lower model.nu")
    return kappa


def _flux(cells: np.ndarray, kappa, *, out: np.ndarray | None = None,
          rbar: np.ndarray | None = None, work: tuple | None = None):
    """Ungated flux G = r d in ratio form and face mean rbar at faces i+1/2.

    The one flux formula; ``face_flux`` is (nu / h) G.  ``cells`` ends in
    its ghost cell.  With d = rho_{i+1} - rho_i and s = 2 rbar, r = s /
    hypot(s, kappa d) is 1 / R, R = sign(s) sqrt(1 + (kappa q)^2), where
    q = d / s lies in [-1, 1] for nonnegative data and rbar = rho_i + d / 2
    overflows for no finite density.  q divides by rbar + ``_TINY``, so
    vacuum on both sides gives G = 0 without 0/0.  At c = INFINITE G = d
    and rbar is None.  Results go to ``out`` and ``rbar``, the face arrays
    ``work`` are scratch (R is left in ``work[1]``), and buffers left out
    are allocated.
    """
    rho, right = cells[:-1], cells[1:]
    if kappa is None:
        return np.subtract(right, rho, out=out), None
    d, q = np.empty((2, rho.shape[0])) if work is None else work
    flux = np.empty_like(d) if out is None else out
    np.subtract(right, rho, out=d)
    np.multiply(d, 0.5, out=q)
    rbar = np.add(rho, q, out=rbar)
    np.add(rbar, _TINY, out=flux)
    np.divide(q, flux, out=q)
    q *= kappa
    np.multiply(q, q, out=q)
    q += 1.0
    np.sqrt(q, out=q)
    np.copysign(q, rbar, out=q)
    return np.divide(d, q, out=flux), rbar


def face_flux(rho: np.ndarray, grid: LineGrid, params: ModelParams,
              reached=None) -> np.ndarray:
    """Density flux at face i+1/2 (periodic): nu rbar g / sqrt(rbar^2 + (nu g/c)^2).

    g is the face density gradient and rbar the arithmetic face mean, so the
    flux saturates at c * rbar and reduces to nu g when c = INFINITE; it is
    evaluated as (nu / h) G from the ratio form of ``_flux``.  Faces left
    out of the boolean mask ``reached`` (see ``reached_faces``) carry zero;
    None gates no face.
    """
    return _gate(_flux(_ghost_cell(rho), _kappa(grid, params))[0] * (params.nu / grid.h),
                 reached)


def heat_rhs(rho: np.ndarray, grid: LineGrid, params: ModelParams,
             reached=None) -> np.ndarray:
    """(nu / h^2) (G_{i+1/2} - G_{i-1/2}) for the flux G of ``_flux``, gated
    by ``reached`` as in ``face_flux``.  ``step_heat`` adds lam = dt nu / h^2
    times the same difference: rho + dt * heat_rhs bit for bit whenever
    nu / h^2 is a power of two, else to an ulp or two of the increment."""
    flux = _ghost_face(_gate(_flux(_ghost_cell(rho), _kappa(grid, params))[0], reached))
    return (flux[1:] - flux[:-1]) * (params.nu / grid.h**2)


def heat_rhs_via_potential(rho: np.ndarray, grid: LineGrid,
                           params: ModelParams, reached=None) -> np.ndarray:
    """Assemble the tendency from the dissipation potential with xi = log rho.

    The face value of grad log rho is taken as (grad rho)/rbar, the exact
    discrete counterpart of rho grad log rho = grad rho, so this route agrees
    with heat_rhs to round-off away from vacuum; ``reached`` gates the faces
    as in ``face_flux``.
    """
    cells = _ghost_cell(rho)
    g = (cells[1:] - cells[:-1]) / grid.h
    rbar = 0.5 * (cells[:-1] + cells[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(rbar > 0.0, g / rbar, 0.0)
    f = _ghost_face(_gate(params.nu * rbar * saturating_flux(z, params), reached))
    return (f[1:] - f[:-1]) / grid.h


# ---------------------------------------------------------------------------
# light-cone gate

def light_cone(rho: np.ndarray, t: float, grid: LineGrid,
               params: ModelParams) -> np.ndarray:
    """Time t + dist(face i+1/2, supp rho) / c at which the cone reaches each face.

    supp rho is the union of the cells with rho != 0 and distances are
    periodic, so faces touching the support open at t.  Returns ``ALL_OPEN``
    when no face can be closed: c = INFINITE, no exact-zero cell, or no
    nonzero cell.
    """
    occupied = rho != 0.0
    n = grid.N
    if params.classical or np.count_nonzero(occupied) in (0, n):
        return ALL_OPEN
    k = np.arange(2 * n)
    twice = np.concatenate([occupied, occupied])
    # over two periods: last occupied cell at or before k, first at or after k
    last = np.maximum.accumulate(np.where(twice, k, -1))
    first = np.minimum.accumulate(np.where(twice, k, 2 * n)[::-1])[::-1]
    # whole cells between face i+1/2 and the support on either side
    cells_left = k[n:] - last[n:]
    cells_right = first[1:n + 1] - k[1:n + 1]
    gap, crossing = np.minimum(cells_left, cells_right), grid.h / params.c
    if math.isinf(crossing):                # only the faces touching the support open
        return np.where(gap > 0, math.inf, t)
    with np.errstate(over="ignore"):        # a time beyond the float range: never reached
        return t + gap * crossing


def _reached(cone: np.ndarray, t: float):
    """Boolean mask of the faces the cone has reached at t, None when it has
    reached every face."""
    reached = cone <= t
    return None if reached.all() else reached


def _next_opening(cone: np.ndarray, t: float) -> float:
    """The first time after t at which the cone reaches a face; inf if none."""
    upcoming = cone[cone > t]
    return float(upcoming.min()) if upcoming.size else math.inf


def _cone_and_reached(state: HeatState, grid: LineGrid, params: ModelParams):
    cone = state.cone if state.cone is not None else \
        light_cone(state.rho, state.t, grid, params)
    reached = _reached(cone, state.t)
    return (ALL_OPEN if reached is None else cone), reached


def reached_faces(state: HeatState, grid: LineGrid, params: ModelParams):
    """Boolean mask of the faces the cone has reached at state.t, or None
    when every face is open; the gate ``step_heat`` applies to this state."""
    return _cone_and_reached(state, grid, params)[1]


def stable_dt(grid: LineGrid, params: ModelParams) -> float:
    """Largest Euler step: h^2 / (2 nu), and just under it where 2 c h > nu
    (c = INFINITE included).

    At this step the Euler map is doubly stochastic, which proves the
    H-theorem step by step.  The step is new_i = rho_i + lam (G_{i+1/2} -
    G_{i-1/2}), lam = dt nu / h^2, with G = r d and r in [0, 1] (``_flux``):
    a face the light cone has not reached has r = 0, and c = INFINITE gives
    r = 1.  With r frozen at the old state the step is new = P rho, where

        P[i, i+1] = lam r_{i+1/2},   P[i, i-1] = lam r_{i-1/2},
        P[i, i] = 1 - lam (r_{i+1/2} + r_{i-1/2}).

    P is symmetric and its rows sum to 1, and dt <= h^2 / (2 nu), i.e.
    lam <= 1/2, makes its diagonal nonnegative, so P is doubly stochastic
    for every c.  Each new value is a convex combination of its old
    neighbours: positivity and the min/max principle.  The column sums give
    exact mass.  For the concave eta(x) = -x log x, Jensen gives
    sum_i eta(new_i) >= sum_i sum_j P_ij eta(rho_j) = sum_j eta(rho_j): the
    Boltzmann entropy never falls.

    The margin: a cell flanked by vacuum (|d| = s) has r = 1 / sqrt(1 +
    kappa^2) on both faces, so lam = 1/2 leaves P[i, i] = 1 - r.  For
    kappa = 2 nu / (c h) >= 4 that is at least 3/4.  For kappa < 4, i.e.
    2 c h > nu, r can come near 1 and the diagonal near round-off; the
    flux-form update then leaves the cell at rho_i - rho_i (1 + O(eps)), up
    to a few ulps of rho_i below zero, which breaks NEGATIVE_TOL once rho_i
    exceeds about 25.  So there the step is (1 - 2^-20) h^2 / (2 nu), which
    leaves such a cell at least about 1e-6 rho_i, far above round-off.
    """
    try:
        dt = 0.5 * grid.h**2 / params.nu
    except OverflowError:                   # h^2 is beyond the float range
        dt = math.inf
    if 2.0 * params.c * grid.h > params.nu:
        dt *= _LOW_KAPPA_MARGIN
    if not (math.isfinite(dt) and dt > 0):
        raise StabilityError(f"the stability bound on dt is {dt!r}: h^2 / (2 nu) with h = "
                             f"{grid.h:.3e} and nu = {params.nu:.3e} leaves the float range; "
                             "check grid.length, grid.n and model.nu")
    return dt


def _reach(stages: int, bound: float) -> float:
    """The longest step that s >= 2 RKL2 stages take stably: (s^2 + s - 2) / 4
    times the Euler bound."""
    return (stages * stages + stages - 2) / 4 * bound


def _stage_count(dt: float, bound: float) -> int:
    """s(dt): 1 (forward Euler) up to the Euler bound, else the fewest RKL2
    stages s >= 2 whose reach covers dt; a StabilityError beyond the reach of
    ``_S_MAX`` stages."""
    if dt <= bound * (1.0 + 1e-12):
        return 1
    for stages in range(2, _S_MAX + 1):
        if dt <= _reach(stages, bound) * (1.0 + 1e-12):
            return stages
    raise StabilityError(f"dt={dt:g} exceeds the reach {_reach(_S_MAX, bound):g} of "
                         f"{_S_MAX} RKL2 stages ({_reach(_S_MAX, 1.0):g} times the "
                         f"stability bound {bound:g})")


def _auto_step(grid: LineGrid, params: ModelParams, bound: float,
               cone: np.ndarray) -> tuple[float, str]:
    """max(stable_dt, min(reach of ``_S_MAX`` stages, h / (4 c))) and what set it,
    for dt None.  The cap applies only when the light cone closes a face at the
    start, so the gate, set at each superstep's start, lags the front by <= h/4."""
    cap = grid.h / (4.0 * params.c) if _reached(cone, 0.0) is not None else math.inf
    reach = _reach(_S_MAX, bound)
    if bound >= min(reach, cap):
        return bound, "stable_dt"
    return (cap, "front cap h/(4c)") if cap <= reach else (reach, f"reach of {_S_MAX} RKL2 stages")


def _rkl2(stages: int) -> tuple:
    """The RKL2 superstep of s >= 2 stages (Meyer, Balsara & Aslam 2014):
    Y_1 = Y_0 + mt_1 tau L(Y_0), and for j = 2..s

        Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
              + mt_j tau L(Y_{j-1}) + gt_j tau L(Y_0),

    with b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2) / (2 j (j + 1)),
    w1 = 4 / (s^2 + s - 2), mt_1 = w1 b_1, mu_j = (2j - 1) b_j / (j b_{j-1}),
    nu_j = -(j - 1) b_j / (j b_{j-2}), mt_j = w1 mu_j and gt_j = -(1 -
    b_{j-1}) mt_j.  Returns mt_1 and, for each j >= 2, (mu_j, nu_j, mt_j,
    gt_j)."""
    w1 = 4.0 / (stages * stages + stages - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(3, stages + 1)]
    later = []
    for j in range(2, stages + 1):
        mu = (2 * j - 1) * b[j] / (j * b[j - 1])
        later.append((mu, -(j - 1) * b[j] / (j * b[j - 2]), w1 * mu,
                      -(1.0 - b[j - 1]) * w1 * mu))
    return w1 * b[1], later


# ---------------------------------------------------------------------------
# the stepping kernel

class _Workspace:
    """The buffers and constants of one chain of heat steps; not thread-safe.

    ``rows[b]`` is a density followed by its ghost cell; row 0 starts as
    ``rho``.  Superstep b reads row b and writes row b + 1 in ``stages``
    stages, and stage e of the block (``steps[e]``) leaves the ungated flux
    and face mean of the state it steps from in ``flux[e]`` and
    ``rbar[e]``; ``checks`` and ``check_mask`` are scratch of the block
    checks.  ``stack`` holds a superstep's stage rows: Y_{j-1} and Y_{j-2}
    in rows 0 and 1 by turns, Y_0 in row 2, and the face differences
    G_{i+1/2} - G_{i-1/2} of Y_0 and of the latest stage in rows 3 and 4
    (their ghost column stays 0); a chain of Euler steps has none.
    ``open`` is 1.0 on the faces the last ``gate`` opened and 0.0 elsewhere
    (None: all open); ``faces`` holds the flux through them, led by its
    ghost.
    """

    def __init__(self, grid: LineGrid, params: ModelParams, dt: float, stages: int,
                 block: int, rho: np.ndarray):
        n = grid.N
        self.grid, self.kappa, self.stages = grid, _kappa(grid, params), stages
        lam = dt * (params.nu / grid.h**2)
        if not math.isfinite(lam):          # nu / h^2 overflows
            raise StabilityError(f"dt nu / h^2 is {lam!r}: nu / h^2 = "
                                 f"{params.nu / grid.h**2!r}; raise grid.length or lower model.nu")
        self.rows = np.empty((block + 1, n + 1))
        self.rows[0, :-1], self.rows[0, -1] = rho, rho[0]
        self.flux, self.rbar = np.empty((2, block * stages, n))
        self.checks = np.empty((block, n + 1))
        self.check_mask = np.empty((block, n + 1), dtype=bool)
        self.faces = np.empty(n + 1)
        self.work = tuple(np.empty((2, n)))
        if stages > 1:
            self.stack, self.sum = np.zeros((5, n + 1)), np.empty(n + 1)
            self.diff0, self.diff = self.stack[3, :-1], self.stack[4, :-1]
        else:                               # an Euler chain keeps no difference
            self.diff0 = self.work[0]
        # the views each stage works on, made once: a stage is bound by call
        # overhead.  A stage reads cells, writes new, keeps a copy of new in
        # keep (None: no copy) and takes the Euler form (weights None) or
        # the weighted sum of the stack rows
        first, later = (1.0, []) if stages == 1 else _rkl2(stages)
        self.lam = first * lam              # the Euler stage's; dt nu / h^2 at s = 1
        self.steps = []
        for b in range(block):
            e = len(self.steps)
            into = self.rows[b + 1] if stages == 1 else self.stack[1]
            self.steps.append((self.rows[b], into, self.flux[e], self.rbar[e], None, None, ""))
            for j, (mu, nu, mt, gt) in enumerate(later, start=2):
                e, last = e + 1, j == stages
                weights = np.zeros(5)
                weights[(j - 1) % 2], weights[2] = mu, 1.0 - mu - nu
                weights[j % 2 if j > 2 else 2] += nu      # Y_{j-2} is Y_0 at j = 2
                weights[3:] = gt * lam, mt * lam
                self.steps.append((self.stack[(j - 1) % 2],
                                   self.rows[b + 1] if last else self.sum,
                                   self.flux[e], self.rbar[e],
                                   None if last else self.stack[j % 2], weights,
                                   f"stage {j} of {stages} of "))
        self.gated, self.open = self.faces[1:], None

    def gate(self, reached) -> None:
        """Let the stages pass flux only through the faces in the boolean mask
        ``reached`` (None: every face)."""
        self.open = None if reached is None else np.where(reached, 1.0, 0.0)


def _step_into(ws: _Workspace, e: int, t: float) -> None:
    """Stage e of the block through the faces of ``ws.gate``, in a superstep
    from time t.  An Euler stage writes rho + lam (G_{i+1/2} - G_{i-1/2}) and
    keeps the difference as that of Y_0; a later RKL2 stage writes the
    recursion's weighted sum of the stack (``_rkl2``).  Raises the errors
    ``step_heat`` names, with the lowest cell, the stage and t."""
    cells, new, flux, rbar, keep, weights, stage = ws.steps[e]
    flux = _flux(cells, ws.kappa, out=flux, rbar=rbar, work=ws.work)[0]
    faces, gated = ws.faces, ws.gated
    if ws.open is None:
        gated[...] = flux
    else:
        np.multiply(flux, ws.open, out=gated)
    faces[0] = faces[-1]
    if weights is None:
        div = np.subtract(faces[1:], faces[:-1], out=ws.diff0)
        np.add(cells[:-1], np.multiply(div, ws.lam, out=ws.work[0]), out=new[:-1])
    else:
        np.subtract(faces[1:], faces[:-1], out=ws.diff)
        np.dot(weights, ws.stack, out=new)
    new[-1] = new[0]
    low = np.minimum.reduce(new)            # nan if any cell is nan
    if not low >= NEGATIVE_TOL:
        where = f"at cell {int(np.argmin(new[:-1]))} in {stage}the step from t = {float(t)!r}"
        if not math.isfinite(low):
            raise StabilityError(f"the heat step left a density that is not finite "
                                 f"({float(low)!r}) {where}; densities above about 9e307 "
                                 "can overflow it")
        raise PositivityError(f"density undershoot {low:.3e} below {NEGATIVE_TOL:g} {where}")
    if keep is not None:
        keep[...] = new


def _superstep(ws: _Workspace, b: int, t: float) -> None:
    """Superstep b of the block, from ws.rows[b] at time t into ws.rows[b + 1]:
    ws.stages stages of ``_step_into``."""
    if ws.stages > 1:
        ws.stack[2] = ws.rows[b]
    first = b * ws.stages
    for e in range(first, first + ws.stages):
        _step_into(ws, e, t)


def step_heat(state: HeatState, grid: LineGrid, params: ModelParams,
              dt: float) -> HeatState:
    """One forward-Euler step in conservation form; mass is telescoped exactly.

    Faces the light cone has not reached at state.t carry zero flux.  A state
    without a cone gets one from its own density and time (``light_cone``),
    and the returned state carries it on, so a chain of steps keeps the
    support of the data it started from inside supp rho + B(c (t - t0)).
    Once every face is open the chain carries ``ALL_OPEN`` and the step is
    the ungated scheme.  Raises StabilityError for dt above ``stable_dt``
    or a result that is not finite, and PositivityError on an undershoot
    below NEGATIVE_TOL; the errors of the step name its lowest cell and state.t.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt > (bound := stable_dt(grid, params)) * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {bound:g}")
    cone, reached = _cone_and_reached(state, grid, params)
    ws = _Workspace(grid, params, dt, 1, 1, state.rho)
    ws.gate(reached)
    _step_into(ws, 0, state.t)
    return HeatState(rho=ws.rows[1, :-1].copy(), t=state.t + dt, cone=cone)


# ---------------------------------------------------------------------------
# diagnostics

def _entropies(rows: np.ndarray, grid: LineGrid, work: np.ndarray | None = None,
               mask: np.ndarray | None = None) -> list:
    """``boltzmann_entropy`` of the first grid.N cells of each row of ``rows``,
    with scratch of its shape; a row may end in a ghost cell.  rho log rho
    overflows from about 2.5e305 on: such an entropy is -inf, silently, and
    ``run_heat`` names it."""
    contrib = log_density(rows, out=work)
    with np.errstate(over="ignore"):
        contrib *= rows
        vacuum = np.greater(rows, 0.0, out=mask)
        np.logical_not(vacuum, out=vacuum)
        np.copyto(contrib, 0.0, where=vacuum)
        return (-contrib[:, :grid.N].sum(axis=1) * grid.h).tolist()


def boltzmann_entropy(rho: np.ndarray, grid: LineGrid) -> float:
    """-sum rho log rho * h with 0 log 0 = 0."""
    return _entropies(rho[np.newaxis], grid)[0]


def entropy_rate(rho: np.ndarray, grid: LineGrid, params: ModelParams,
                 reached=None) -> float:
    """Instantaneous dS/dt = <dS/drho, rhs> of the tendency gated by
    ``reached`` (``reached_faces`` of the state); nonnegative face by face."""
    xi = -(log_density(rho) + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):   # a rate beyond the float range
        return float(np.sum(xi * heat_rhs(rho, grid, params, reached))) * grid.h


def support_radius(rho: np.ndarray, grid: LineGrid, threshold: float = 1e-12) -> float:
    """Half-width of the cell-face interval covering all cells above threshold.

    Meant for compactly supported bump data away from the periodic seam; a
    single occupied cell gives h/2.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    idx = np.nonzero(rho > threshold)[0]
    if idx.size == 0:
        return 0.0
    return 0.5 * (idx[-1] + 1 - idx[0]) * grid.h


def _saturations(flux: np.ndarray, rbar: np.ndarray, kappa) -> list:
    """``saturation_excess`` of each row of ungated fluxes G and face means:
    max((kappa / 2) |G| - rbar) / max(rbar), as |F| = c (kappa / 2) |G|;
    overwrites the fluxes."""
    if kappa is None:
        return [0.0] * flux.shape[0]
    excess = np.abs(flux, out=flux)
    excess *= 0.5 * kappa
    excess -= rbar
    tops, refs = excess.max(axis=1).tolist(), rbar.max(axis=1).tolist()
    return [top / ref if ref > 0 else top for top, ref in zip(tops, refs)]


def saturation_excess(rho: np.ndarray, grid: LineGrid, params: ModelParams) -> float:
    """max(|F| - c rbar) over faces, normalized by max c rbar; <= O(eps) always.

    Measured on the ungated flux, which bounds the gated one face by face.
    """
    flux, rbar = _flux(_ghost_cell(rho), kappa := _kappa(grid, params))
    return _saturations(flux[np.newaxis], rbar if kappa is None else rbar[np.newaxis],
                        kappa)[0]


# ---------------------------------------------------------------------------
# initial profiles (discrete mass normalized to 1)

def initial_profile(kind: str, grid: LineGrid, sigma: float = 0.0,
                    width: float = 0.0) -> np.ndarray:
    """``kind``'s profile at discrete mass 1 (an overflowing exponent takes the
    limit 0); a ValueError when the cells miss it, as ``unit_mass`` names."""
    x = grid.x
    mid = 0.5 * grid.L
    with np.errstate(over="ignore"):        # unit_mass names a profile the cells miss
        if kind == "uniform":
            rho = np.ones(grid.N)
        elif kind == "gaussian":
            if sigma <= 0:
                raise ValueError("gaussian profile needs sigma > 0")
            rho = np.exp(-0.5 * ((x - mid) / sigma) ** 2)
        elif kind == "bump":
            if width <= 0:
                raise ValueError("bump profile needs width > 0")
            s = (x - mid) / (0.5 * width)
            rho = np.zeros(grid.N)
            core = np.abs(s) < 1.0
            rho[core] = np.exp(-1.0 / (1.0 - s[core] ** 2))
        else:
            raise ValueError(f"unknown heat initial profile kind '{kind}'")
    keys = {"gaussian": "init.sigma, ", "bump": "init.width, "}.get(kind, "")
    return unit_mass(rho, grid.h, f"the {kind} initial profile", keys + "grid.length and grid.n")


# ---------------------------------------------------------------------------
# driver

@dataclass
class HeatRunResult:
    records: list[DiagnosticsRecord]
    state: HeatState
    max_saturation_excess: float   # over every stage's flux and the last state
    min_step_entropy_delta: float  # most negative entropy change of a superstep
    steps: int                     # supersteps
    stages: int                    # per superstep: 1 is forward Euler
    evaluations: int               # flux evaluations of the stepping: steps * stages
    dt: float                      # the superstep
    dt_from: str                   # solver.dt, stable_dt, or what capped _auto_step


def _record(state: HeatState, grid: LineGrid, params: ModelParams) -> DiagnosticsRecord:
    """The diagnostics of a heat state: entropy, mass and the gated entropy rate."""
    return DiagnosticsRecord(
        t=state.t, E=0.0, S=boltzmann_entropy(state.rho, grid),
        mass=float(np.sum(state.rho)) * grid.h,
        dSdt=entropy_rate(state.rho, grid, params, reached_faces(state, grid, params)),
        degL=0.0, degM=0.0, relEnt=None, e=0.0)


def run_heat(grid: LineGrid, params: ModelParams, rho0: np.ndarray, dt: float | None,
             t_final: float, record_every: int, on_record=None) -> HeatRunResult:
    """Integrate to t_final in supersteps, recording every record_every supersteps.

    Records are taken at t=0, at each cadence point and at the final time,
    each followed by ``on_record(state, t, index)``; a record of finite
    entropy and mass whose entropy rate is not finite is a StabilityError,
    and so, once the block of supersteps it falls in has stepped (a step
    that is not finite is named first), is the first record of finite mass
    whose entropy is not finite.
    dt None is ``_auto_step``; equal supersteps of at most dt land on
    t_final, and each takes the stages ``_stage_count`` gives it: one, the
    Euler step of ``step_heat`` bit for bit, up to ``stable_dt``.  Flux saturation is
    tracked over every stage's flux and the last state, and entropy
    monotonicity over every superstep.  The stages run in one workspace
    through the kernel of ``step_heat``, and the checks of a block of states
    come together from the flux the stages evaluated; states handed out are
    copies.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    bound = stable_dt(grid, params)
    rho0 = np.asarray(rho0, dtype=float).copy()
    cone = light_cone(rho0, 0.0, grid, params)
    auto, dt_from = _auto_step(grid, params, bound, cone) if dt is None else (dt, "solver.dt")
    n_steps, step_dt = time_steps(t_final, auto)
    stages = _stage_count(step_dt, bound)
    if stages > 1 and (top := float(np.max(np.abs(rho0)))) > _SUPERSTEP_RHO_MAX:
        raise StabilityError(f"the density reaches {top:.3e}, above {_SUPERSTEP_RHO_MAX:.0e}, "
                             "where the sums of a superstep can overflow; take dt <= "
                             f"stable_dt = {bound:g}")
    state = HeatState(rho=rho0, t=0.0, cone=cone)
    block = max(1, _BLOCK // stages)
    ws = _Workspace(grid, params, step_dt, stages, block, rho0)
    records = []
    overflow = []                           # the first record of finite mass and S not finite

    def record(st):
        rec = _record(st, grid, params)
        if math.isfinite(rec.mass) and not (math.isfinite(rec.S) or overflow):
            overflow.append(f"the entropy S is {rec.S!r} at t = {st.t!r}: -rho log rho "
                            "overflows the float range; rescale the density")
        if math.isfinite(rec.S) and math.isfinite(rec.mass) and not math.isfinite(rec.dSdt):
            raise StabilityError(f"the entropy rate dS/dt is {rec.dSdt!r} at t = {st.t!r}, "
                                 "beyond the float range; lower model.nu or raise grid.length")
        records.append(rec)
        if on_record is not None:
            on_record(st, st.t, len(records) - 1)

    record(state)
    max_sat = -math.inf
    min_ds = 0.0
    entropy = records[0].S
    t = opens_at = 0.0
    for start in range(0, n_steps, block):
        size = min(block, n_steps - start)
        for b in range(size):
            if t >= opens_at:               # the gate changes only here
                reached = _reached(cone, t)
                ws.gate(reached)
                opens_at = _next_opening(cone, t)
            _superstep(ws, b, t)
            k = start + b + 1
            t = t_final if k == n_steps else t + step_dt
            if k % record_every == 0 or k == n_steps:
                state = HeatState(rho=ws.rows[b + 1, :-1].copy(), t=t,
                                  cone=ALL_OPEN if reached is None else cone)
                record(state)
        if overflow:                        # after the block, whose step may fail first
            raise StabilityError(overflow[0])
        # the block's checks, from the flux its stages left and the states they made
        evaluated = size * stages
        max_sat = max(max_sat, *_saturations(ws.flux[:evaluated], ws.rbar[:evaluated], ws.kappa))
        for new_entropy in _entropies(ws.rows[1:size + 1], grid, ws.checks[:size],
                                      ws.check_mask[:size]):
            min_ds = min(min_ds, new_entropy - entropy)
            entropy = new_entropy
        ws.rows[0] = ws.rows[size]
    max_sat = max(max_sat, saturation_excess(state.rho, grid, params))
    return HeatRunResult(records=records, state=state,
                         max_saturation_excess=max_sat,
                         min_step_entropy_delta=min_ds, steps=n_steps, stages=stages,
                         evaluations=n_steps * stages, dt=step_dt, dt_from=dt_from)
