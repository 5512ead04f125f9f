"""Flux-limited heat equation on a periodic line.

The density flux saturates at c * (face density), which removes the
infinite propagation speed of classical diffusion; with c = INFINITE the
scheme reduces to the standard second-order discretization of the heat
equation.  The same right-hand side can be assembled from the convex
dissipation potential, and the two assemblies are compared in the tests.

Time stepping is forward Euler at up to ``stable_dt``, min(h^2 / (2 nu),
h / (4 c)), or just under h^2 / (2 nu) at c = INFINITE.  Up to that step the Euler map is a doubly stochastic matrix
built from the face diffusivities, so every step keeps the density
nonnegative, obeys the min/max principle, conserves mass and does not lower
the Boltzmann entropy; ``stable_dt`` gives the proof.

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
``step_heat`` and ``run_heat`` alike.  It writes into a workspace
(``_Workspace``) whose density rows carry a ghost copy of cell 0, so the
periodic neighbour is a view, not a copy.  It evaluates the ungated face
flux once (``_flux``, the one flux formula, which also serves ``face_flux``
and ``saturation_excess``), copies it to a face array whose closed faces
stay zero, updates with ``out=`` buffers and checks positivity, every step.  ``run_heat`` keeps the ungated
flux and face mean of the last few states and the states themselves, and
checks a block of ``_BLOCK`` states at once: their saturation excess and
Boltzmann entropy, bit for bit the values of the per-state calls.  The gate
mask is rebuilt only when t passes the next closed face's opening time.
A workspace serves one chain of steps at a time, so it is not thread-safe;
``run_heat`` makes its own, and states it hands out never alias it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, StabilityError
from .grid import LineGrid, time_steps
from .model import ModelParams

NEGATIVE_TOL = -1e-14   # strictest allowed undershoot per explicit step
_CLASSICAL_MARGIN = 1.0 - 2.0**-20   # stable_dt below h^2/(2 nu) at c = inf
_BLOCK = 8              # states whose entropy and saturation are checked together


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
    """phi*(z) = (c^2/nu^2) (sqrt(1 + (nu^2/c^2) |z|^2) - 1); convex, phi*(0)=0."""
    if params.classical:
        raise ValueError("flux_potential requires finite c (classical mode bypasses it)")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    r = (params.nu / params.c) ** 2
    # (sqrt(1 + r z^2) - 1)/r rationalized; stable for r z^2 << 1
    return z * z / (1.0 + np.sqrt(1.0 + r * z * z))


def saturating_flux(z, params: ModelParams):
    """grad phi*(z) = z / sqrt(1 + (nu^2/c^2) |z|^2); norm bounded by c/nu."""
    if params.classical:
        raise ValueError("saturating_flux requires finite c")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    r = (params.nu / params.c) ** 2
    return z / np.sqrt(1.0 + r * z * z)


def dissipation_potential(rho: np.ndarray, xi: np.ndarray, grid: LineGrid,
                          params: ModelParams) -> float:
    """K(rho; xi) = nu * sum rho phi*(grad xi) h, face gradients averaged to cells."""
    cells = _ghost_cell(xi)
    g = _ghost_face((cells[1:] - cells[:-1]) / grid.h)   # face i+1/2 at g[i+1]
    z = 0.5 * (g[1:] + g[:-1])                           # average of the two cell faces
    return params.nu * float(np.sum(rho * flux_potential(z, params))) * grid.h


# ---------------------------------------------------------------------------
# right-hand side

def _divergence(faces: np.ndarray, grid: LineGrid, *,
                out: np.ndarray | None = None) -> np.ndarray:
    """(F_{i+1/2} - F_{i-1/2}) / h from the face flux led by its ghost (``_ghost_face``)."""
    out = np.subtract(faces[1:], faces[:-1], out=out)
    out /= grid.h
    return out


def _gate(flux: np.ndarray, reached) -> np.ndarray:
    return flux if reached is None else np.where(reached, flux, 0.0)


def _flux(cells: np.ndarray, grid: LineGrid, params: ModelParams, *,
          out: np.ndarray | None = None, rbar: np.ndarray | None = None,
          work: tuple | None = None, mask: np.ndarray | None = None):
    """Ungated face flux and face mean rbar at faces i+1/2 (see ``face_flux``).

    ``cells`` is the density followed by its ghost cell (``_ghost_cell``).
    The one flux formula: the step, the saturation check and the public
    ``face_flux`` all read the flux from here.  The flux and rbar go to
    ``out`` and ``rbar``; the two face arrays ``work`` and the boolean face
    array ``mask`` are scratch.  Any buffer left out is allocated.
    """
    rho, right = cells[:-1], cells[1:]
    g, tmp = np.empty((2, rho.shape[0])) if work is None else work
    nu, c = params.nu, params.c
    np.subtract(right, rho, out=g)
    g /= grid.h
    rbar = np.add(rho, right, out=rbar)
    rbar *= 0.5
    if params.classical:
        return np.multiply(g, nu, out=out), rbar
    np.multiply(g, (nu / c) ** 2, out=tmp)
    tmp *= g
    flux = np.multiply(rbar, rbar, out=out)
    tmp += flux                                   # rbar^2 + (nu g / c)^2
    # zero where rbar = g = 0 (vacuum on both sides), without evaluating 0/0
    nonzero = np.greater(tmp, 0.0, out=mask)
    np.sqrt(tmp, out=tmp)
    np.multiply(rbar, nu, out=flux)
    g *= flux                                     # nu rbar g
    flux.fill(0.0)
    np.divide(g, tmp, out=flux, where=nonzero)
    return flux, rbar


def face_flux(rho: np.ndarray, grid: LineGrid, params: ModelParams,
              reached=None) -> np.ndarray:
    """Density flux at face i+1/2 (periodic): nu rbar g / sqrt(rbar^2 + (nu g/c)^2).

    g is the face density gradient and rbar the arithmetic face mean, so the
    flux saturates at c * rbar and reduces to nu g when c = INFINITE.  Faces
    left out of the boolean mask ``reached`` (see ``reached_faces``) carry
    zero; None gates no face.
    """
    return _gate(_flux(_ghost_cell(rho), grid, params)[0], reached)


def heat_rhs(rho: np.ndarray, grid: LineGrid, params: ModelParams,
             reached=None) -> np.ndarray:
    return _divergence(_ghost_face(face_flux(rho, grid, params, reached)), grid)


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
    f = _gate(params.nu * rbar * saturating_flux(z, params), reached)
    return _divergence(_ghost_face(f), grid)


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
    """Largest Euler step: min(h^2 / (2 nu), h / (4 c)), and just under
    h^2 / (2 nu) for c = INFINITE.

    At this step the Euler map is doubly stochastic, which proves the
    H-theorem step by step.  The flux at face i+1/2 is F = D g, with g the
    face gradient and the face diffusivity D = nu rbar / sqrt(rbar^2 +
    (nu g / c)^2) in [0, nu]: a face the light cone has not reached has
    D = 0, and c = INFINITE gives D = nu.  With D frozen at the old state
    the step is new = P rho, where

        P[i, i+1] = dt D_{i+1/2} / h^2,   P[i, i-1] = dt D_{i-1/2} / h^2,
        P[i, i] = 1 - dt (D_{i+1/2} + D_{i-1/2}) / h^2.

    P is symmetric and its rows sum to 1, and dt <= h^2 / (2 nu) makes its
    diagonal nonnegative, so P is doubly stochastic for every c.  Each new
    value is a convex combination of its old neighbours: positivity and the
    min/max principle.  The column sums give exact mass.  For the concave
    eta(x) = -x log x, Jensen gives sum_i eta(new_i) >= sum_i sum_j P_ij
    eta(rho_j) = sum_j eta(rho_j): the Boltzmann entropy never falls.

    The flux bound h / (4 c) keeps a saturated front, which moves at c,
    under a quarter cell per step.  On a cell flanked by vacuum it also
    keeps the diagonal of P at least 3/4: there rbar = rho_i / 2 and
    |g| = rho_i / h, so with x = nu / (c h) each face has dt D / h^2 <=
    min(1/2, x/4) / sqrt(1 + 4 x^2) <= 1/8.  At c = INFINITE there is no
    such bound and the exact h^2 / (2 nu) zeroes the diagonal of P on every
    cell; the flux-form update then leaves a cell flanked by vacuum at
    rho_i - rho_i (1 + O(eps)), up to a few ulps of rho_i below zero, which
    breaks NEGATIVE_TOL once rho_i exceeds about 25.  So c = INFINITE
    steps at (1 - 2^-20) h^2 / (2 nu), which leaves such a cell about
    1e-6 rho_i, far above round-off.
    """
    dt = 0.5 * grid.h**2 / params.nu
    if params.classical:
        dt *= _CLASSICAL_MARGIN
    else:
        dt = min(dt, 0.25 * grid.h / params.c)
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
    """The buffers one chain of heat steps writes into; not thread-safe.

    ``rows[j]`` is a density followed by its ghost cell.  A step reads row j,
    writes row j + 1 and leaves the ungated flux and face mean of row j in
    ``flux[j]`` and ``rbar[j]``; ``checks`` and ``check_mask`` are scratch
    of the block checks.  ``faces`` holds the gated flux led by its ghost;
    its gated faces stay zero from one ``gate`` call to the next.
    """

    def __init__(self, n: int, block: int):
        self.rows = np.empty((block + 1, n + 1))
        self.flux, self.rbar = np.empty((2, block, n))
        self.checks = np.empty((block, n + 1))
        self.check_mask = np.empty((block, n + 1), dtype=bool)
        self.faces = np.empty(n + 1)
        self.work = tuple(np.empty((2, n)))
        self.mask = np.empty(n, dtype=bool)
        # the views step j works on, made once: a step is bound by call overhead
        self.steps = [(self.rows[j], self.rows[j + 1], self.flux[j], self.rbar[j])
                      for j in range(block)]
        self.gated, self.div = self.faces[1:], self.work[0]
        self.gate(None)

    def load(self, rho: np.ndarray) -> None:
        """Put rho in row 0."""
        self.rows[0, :-1] = rho
        self.rows[0, -1] = rho[0]

    def flux_of(self, j: int, grid: LineGrid, params: ModelParams) -> np.ndarray:
        """``_flux`` of row j, into flux[j] and rbar[j]."""
        cells, _, out, rbar = self.steps[j]
        return _flux(cells, grid, params, out=out, rbar=rbar, work=self.work,
                     mask=self.mask)[0]

    def saturations(self, size: int, params: ModelParams) -> list:
        """``saturation_excess`` of rows 0 to size - 1, from the flux left by
        ``flux_of``; uses up that flux."""
        return _saturations(self.flux[:size], self.rbar[:size], params)

    def entropies(self, first: int, size: int, grid: LineGrid) -> list:
        """``boltzmann_entropy`` of rows first to first + size - 1."""
        return _entropies(self.rows[first:first + size], grid,
                          self.checks[:size], self.check_mask[:size])

    def gate(self, reached) -> None:
        """Let the steps pass flux only through the faces in the boolean mask
        ``reached`` (None: every face)."""
        self.reached = reached
        self.faces.fill(0.0)


def _step_into(ws: _Workspace, j: int, grid: LineGrid, params: ModelParams,
               dt: float) -> None:
    """Euler step from ws.rows[j] into ws.rows[j + 1] through the faces of
    the last ``ws.gate``; raises PositivityError on an undershoot below
    NEGATIVE_TOL and StabilityError on a density that is not finite."""
    flux = ws.flux_of(j, grid, params)
    cells, new = ws.steps[j][:2]
    faces, gated = ws.faces, ws.gated
    if ws.reached is None:
        gated[...] = flux
    else:
        np.copyto(gated, flux, where=ws.reached)
    faces[0] = faces[-1]
    div = _divergence(faces, grid, out=ws.div)
    div *= dt
    np.add(cells[:-1], div, out=new[:-1])
    new[-1] = new[0]
    low = np.minimum.reduce(new)            # nan if any cell is nan
    if not low >= NEGATIVE_TOL:
        if not math.isfinite(low):
            raise StabilityError(f"the heat step left a density that is not finite "
                                 f"(min {low!r}); at finite c the face flux "
                                 "overflows for densities above about 1e154")
        raise PositivityError(f"density undershoot {low:.3e} below {NEGATIVE_TOL:g}")


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
    below NEGATIVE_TOL.
    """
    _check_dt(dt, grid, params)
    cone, reached = _cone_and_reached(state, grid, params)
    ws = _Workspace(grid.N, 1)
    ws.load(state.rho)
    ws.gate(reached)
    _step_into(ws, 0, grid, params, dt)
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


def _saturations(flux: np.ndarray, rbar: np.ndarray, params: ModelParams) -> list:
    """``saturation_excess`` of each row of ungated fluxes and face means;
    overwrites both arrays."""
    if params.classical:
        return [0.0] * flux.shape[0]
    cap = np.multiply(rbar, params.c, out=rbar)
    excess = np.abs(flux, out=flux)
    excess -= cap
    tops, refs = excess.max(axis=1).tolist(), cap.max(axis=1).tolist()
    return [top / ref if ref > 0 else top for top, ref in zip(tops, refs)]


def saturation_excess(rho: np.ndarray, grid: LineGrid, params: ModelParams) -> float:
    """max(|F| - c rbar) over faces, normalized by max c rbar; <= O(eps) always.

    Measured on the ungated flux, which bounds the gated one face by face.
    """
    flux, rbar = _flux(_ghost_cell(rho), grid, params)
    return _saturations(flux[np.newaxis], rbar[np.newaxis], params)[0]


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
    ws = _Workspace(grid.N, _BLOCK)
    ws.load(rho0)
    records = []

    def record(st):
        if on_record is not None:
            records.append(on_record(st))

    record(state)
    max_sat = -math.inf
    min_ds = 0.0
    entropy = ws.entropies(0, 1, grid)[0]
    t = opens_at = 0.0
    for start in range(0, n_steps, _BLOCK):
        size = min(_BLOCK, n_steps - start)
        for j in range(size):
            if t >= opens_at:               # the gate changes only here
                reached = _reached(cone, t)
                ws.gate(reached)
                opens_at = _next_opening(cone, t)
            _step_into(ws, j, grid, params, step_dt)
            k = start + j + 1
            t = t_final if k == n_steps else t + step_dt
            if k % record_every == 0 or k == n_steps:
                state = HeatState(rho=ws.rows[j + 1, :-1].copy(), t=t,
                                  cone=ALL_OPEN if reached is None else cone)
                record(state)
        for sat, new_entropy in zip(ws.saturations(size, params),
                                    ws.entropies(1, size, grid)):
            max_sat = max(max_sat, sat)
            min_ds = min(min_ds, new_entropy - entropy)
            entropy = new_entropy
        ws.rows[0] = ws.rows[size]
    ws.flux_of(0, grid, params)             # the last state, now in row 0
    max_sat = max(max_sat, ws.saturations(1, params)[0])
    return HeatRunResult(records=records, state=state,
                         max_saturation_excess=max_sat,
                         min_step_entropy_delta=min_ds)
