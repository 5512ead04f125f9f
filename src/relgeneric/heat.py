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

One private kernel, ``_step_into``, makes every Euler step, for
``step_heat`` and ``run_heat`` alike, in a workspace (``_Workspace``) that
binds lam and kappa once per chain and whose density rows end in a ghost
copy of cell 0.  A step evaluates the ungated flux once (``_flux``, which
also serves ``face_flux``, ``heat_rhs`` and ``saturation_excess``),
multiplies it by the open faces and checks positivity and finiteness.
``run_heat`` checks a block of ``_BLOCK`` states at once from their kept
flux: saturation excess and Boltzmann entropy, bit for bit the values of
the per-state calls.  A workspace serves one chain at a time, so it is not
thread-safe; ``run_heat`` makes its own, and states it hands out never
alias it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, StabilityError
from .grid import LineGrid, time_steps
from .model import ModelParams

NEGATIVE_TOL = -1e-14   # strictest allowed undershoot per explicit step
_LOW_KAPPA_MARGIN = 1.0 - 2.0**-20   # stable_dt below h^2/(2 nu) where kappa < 4
_BLOCK = 8              # states whose entropy and saturation are checked together
_TINY = math.ulp(0.0)   # smallest positive double: moves no face mean above 1e-307


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
    """kappa = 2 nu / (c h) of the ratio form (``_flux``); None at c = INFINITE."""
    return None if params.classical else 2.0 * params.nu / (params.c * grid.h)


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
    return t + np.minimum(cells_left, cells_right) * (grid.h / params.c)


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
    dt = 0.5 * grid.h**2 / params.nu
    if 2.0 * params.c * grid.h > params.nu:
        dt *= _LOW_KAPPA_MARGIN
    if not (math.isfinite(dt) and dt > 0):
        raise StabilityError(f"the stability bound on dt is {dt!r}; "
                             "the parameters leave no usable time step")
    return dt


def _check_dt(dt: float, grid: LineGrid, params: ModelParams) -> None:
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    bound = stable_dt(grid, params)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {bound:g}")


# ---------------------------------------------------------------------------
# the stepping kernel

class _Workspace:
    """The buffers and constants of one chain of heat steps; not thread-safe.

    ``rows[j]`` is a density followed by its ghost cell; row 0 starts as
    ``rho``.  A step reads row j, writes row j + 1 and leaves the ungated
    flux and face mean of row j in ``flux[j]`` and ``rbar[j]``; ``checks``
    and ``check_mask`` are scratch of the block checks.  ``open`` is 1.0 on
    the faces the last ``gate`` opened and 0.0 elsewhere (None: all open);
    ``faces`` holds the flux through them, led by its ghost.
    """

    def __init__(self, grid: LineGrid, params: ModelParams, dt: float, block: int,
                 rho: np.ndarray):
        n = grid.N
        self.grid, self.kappa = grid, _kappa(grid, params)
        self.lam = dt * (params.nu / grid.h**2)
        self.rows = np.empty((block + 1, n + 1))
        self.rows[0, :-1], self.rows[0, -1] = rho, rho[0]
        self.flux, self.rbar = np.empty((2, block, n))
        self.checks = np.empty((block, n + 1))
        self.check_mask = np.empty((block, n + 1), dtype=bool)
        self.faces = np.empty(n + 1)
        self.work = tuple(np.empty((2, n)))
        # the views step j works on, made once: a step is bound by call overhead
        self.steps = [(self.rows[j], self.rows[j + 1], self.flux[j], self.rbar[j])
                      for j in range(block)]
        self.gated, self.open = self.faces[1:], None

    def flux_of(self, j: int) -> np.ndarray:
        """``_flux`` of row j, into flux[j] and rbar[j]."""
        cells, _, flux, rbar = self.steps[j]
        return _flux(cells, self.kappa, out=flux, rbar=rbar, work=self.work)[0]

    def saturations(self, size: int) -> list:
        """``saturation_excess`` of rows 0 to size - 1, from the flux left by
        ``flux_of``; uses up that flux."""
        return _saturations(self.flux[:size], self.rbar[:size], self.kappa)

    def entropies(self, first: int, size: int) -> list:
        """``boltzmann_entropy`` of rows first to first + size - 1."""
        return _entropies(self.rows[first:first + size], self.grid,
                          self.checks[:size], self.check_mask[:size])

    def gate(self, reached) -> None:
        """Let the steps pass flux only through the faces in the boolean mask
        ``reached`` (None: every face)."""
        self.open = None if reached is None else np.where(reached, 1.0, 0.0)


def _step_into(ws: _Workspace, j: int, t: float) -> None:
    """Euler step rho + lam (G_{i+1/2} - G_{i-1/2}) from ws.rows[j], the
    state at time t, into ws.rows[j + 1] through the faces of ``ws.gate``;
    raises the errors ``step_heat`` names, with the lowest cell and t."""
    flux = ws.flux_of(j)
    cells, new = ws.steps[j][:2]
    faces, gated = ws.faces, ws.gated
    if ws.open is None:
        gated[...] = flux
    else:
        np.multiply(flux, ws.open, out=gated)
    faces[0] = faces[-1]
    div = np.subtract(faces[1:], faces[:-1], out=ws.work[0])
    div *= ws.lam
    np.add(cells[:-1], div, out=new[:-1])
    new[-1] = new[0]
    low = np.minimum.reduce(new)            # nan if any cell is nan
    if not low >= NEGATIVE_TOL:
        where = f"at cell {int(np.argmin(new[:-1]))} in the step from t = {float(t)!r}"
        if not math.isfinite(low):
            raise StabilityError(f"the heat step left a density that is not finite "
                                 f"({float(low)!r}) {where}; densities above about 9e307 "
                                 "can overflow it")
        raise PositivityError(f"density undershoot {low:.3e} below {NEGATIVE_TOL:g} {where}")


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
    _check_dt(dt, grid, params)
    cone, reached = _cone_and_reached(state, grid, params)
    ws = _Workspace(grid, params, dt, 1, state.rho)
    ws.gate(reached)
    _step_into(ws, 0, state.t)
    return HeatState(rho=ws.rows[1, :-1].copy(), t=state.t + dt, cone=cone)


# ---------------------------------------------------------------------------
# diagnostics

def _entropies(rows: np.ndarray, grid: LineGrid, work: np.ndarray | None = None,
               mask: np.ndarray | None = None) -> list:
    """``boltzmann_entropy`` of the first grid.N cells of each row of ``rows``,
    with scratch of its shape; a row may end in a ghost cell."""
    contrib = np.maximum(rows, 1e-300, out=work)
    np.log(contrib, out=contrib)
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
    xi = -(np.log(np.maximum(rho, 1e-300)) + 1.0)
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
    x = grid.x
    mid = 0.5 * grid.L
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
    return rho / (float(np.sum(rho)) * grid.h)


# ---------------------------------------------------------------------------
# driver

@dataclass
class HeatRunResult:
    records: list                  # DiagnosticsRecord-compatible rows via runners
    state: HeatState
    max_saturation_excess: float   # over all steps
    min_step_entropy_delta: float  # most negative per-step entropy change


def run_heat(grid: LineGrid, params: ModelParams, rho0: np.ndarray, dt: float,
             t_final: float, record_every: int, on_record=None) -> HeatRunResult:
    """Integrate to t_final with forward Euler, recording every record_every steps.

    ``on_record(state)`` is called at t=0, at each cadence point, and at the
    final time; per-step entropy monotonicity and flux saturation are tracked
    over every state the run visits, the first and the last included.  The
    step size is checked against ``stable_dt`` once.  The steps run in one
    workspace through the kernel of ``step_heat``, bit for bit, and the
    saturation and entropy of each block of ``_BLOCK`` states are computed
    together from the flux the steps evaluated; states handed out are copies.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    n_steps, step_dt = time_steps(t_final, dt)
    _check_dt(step_dt, grid, params)
    rho0 = np.asarray(rho0, dtype=float).copy()
    cone = light_cone(rho0, 0.0, grid, params)
    state = HeatState(rho=rho0, t=0.0, cone=cone)
    ws = _Workspace(grid, params, step_dt, _BLOCK, rho0)
    records = []

    def record(st):
        if on_record is not None:
            records.append(on_record(st))

    record(state)
    max_sat = -math.inf
    min_ds = 0.0
    entropy = ws.entropies(0, 1)[0]
    t = opens_at = 0.0
    for start in range(0, n_steps, _BLOCK):
        size = min(_BLOCK, n_steps - start)
        for j in range(size):
            if t >= opens_at:               # the gate changes only here
                reached = _reached(cone, t)
                ws.gate(reached)
                opens_at = _next_opening(cone, t)
            _step_into(ws, j, t)
            k = start + j + 1
            t = t_final if k == n_steps else t + step_dt
            if k % record_every == 0 or k == n_steps:
                state = HeatState(rho=ws.rows[j + 1, :-1].copy(), t=t,
                                  cone=ALL_OPEN if reached is None else cone)
                record(state)
        for sat, new_entropy in zip(ws.saturations(size), ws.entropies(1, size)):
            max_sat = max(max_sat, sat)
            min_ds = min(min_ds, new_entropy - entropy)
            entropy = new_entropy
        ws.rows[0] = ws.rows[size]
    ws.flux_of(0)                           # the last state, now in row 0
    max_sat = max(max_sat, ws.saturations(1)[0])
    return HeatRunResult(records=records, state=state,
                         max_saturation_excess=max_sat,
                         min_step_entropy_delta=min_ds)
