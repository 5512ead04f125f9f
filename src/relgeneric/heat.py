"""Flux-limited heat equation on a periodic line.

The density flux saturates at c * (face density), which removes the
infinite propagation speed of classical diffusion; with c = INFINITE the
scheme reduces to the standard second-order discretization of the heat
equation.  The same right-hand side can be assembled from the convex
dissipation potential, and the two assemblies are compared in the tests.

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

One private kernel evaluates the ungated face flux.  ``run_heat`` calls it
once per step, and that one array serves both the saturation check of the
state and, gated, the Euler update, with the arithmetic of ``step_heat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PositivityError, StabilityError
from .grid import LineGrid, time_steps
from .model import ModelParams

NEGATIVE_TOL = -1e-14   # strictest allowed undershoot per explicit step


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
    g = (_next(xi) - xi) / grid.h                  # face i+1/2
    z = 0.5 * (g + _prev(g))                       # average of the two cell faces
    return params.nu * float(np.sum(rho * flux_potential(z, params))) * grid.h


# ---------------------------------------------------------------------------
# right-hand side

def _next(a: np.ndarray) -> np.ndarray:
    """a[i+1] on the periodic line (np.roll(a, -1) without its overhead)."""
    return np.concatenate((a[1:], a[:1]))


def _prev(a: np.ndarray) -> np.ndarray:
    """a[i-1] on the periodic line."""
    return np.concatenate((a[-1:], a[:-1]))


def _divergence(f: np.ndarray, grid: LineGrid) -> np.ndarray:
    """(F_{i+1/2} - F_{i-1/2}) / h: cell tendency of the face flux f."""
    return (f - _prev(f)) / grid.h


def _gate(flux: np.ndarray, reached) -> np.ndarray:
    return flux if reached is None else np.where(reached, flux, 0.0)


def _flux(rho: np.ndarray, grid: LineGrid, params: ModelParams):
    """Ungated face flux and face mean rbar at faces i+1/2 (see ``face_flux``).

    The one flux kernel: the step, the saturation check and the public
    ``face_flux`` all read the flux from here.
    """
    right = _next(rho)
    g = (right - rho) / grid.h
    rbar = 0.5 * (rho + right)
    if params.classical:
        return params.nu * g, rbar
    denom2 = rbar * rbar + (params.nu / params.c) ** 2 * g * g
    # zero where rbar = g = 0 (vacuum on both sides), without evaluating 0/0
    flux = np.zeros(rbar.shape)
    np.divide(params.nu * rbar * g, np.sqrt(denom2), out=flux, where=denom2 > 0.0)
    return flux, rbar


def face_flux(rho: np.ndarray, grid: LineGrid, params: ModelParams,
              reached=None) -> np.ndarray:
    """Density flux at face i+1/2 (periodic): nu rbar g / sqrt(rbar^2 + (nu g/c)^2).

    g is the face density gradient and rbar the arithmetic face mean, so the
    flux saturates at c * rbar and reduces to nu g when c = INFINITE.  Faces
    left out of the boolean mask ``reached`` (see ``reached_faces``) carry
    zero; None gates no face.
    """
    return _gate(_flux(rho, grid, params)[0], reached)


def heat_rhs(rho: np.ndarray, grid: LineGrid, params: ModelParams,
             reached=None) -> np.ndarray:
    return _divergence(face_flux(rho, grid, params, reached), grid)


def heat_rhs_via_potential(rho: np.ndarray, grid: LineGrid,
                           params: ModelParams, reached=None) -> np.ndarray:
    """Assemble the tendency from the dissipation potential with xi = log rho.

    The face value of grad log rho is taken as (grad rho)/rbar, the exact
    discrete counterpart of rho grad log rho = grad rho, so this route agrees
    with heat_rhs to round-off away from vacuum; ``reached`` gates the faces
    as in ``face_flux``.
    """
    right = _next(rho)
    g = (right - rho) / grid.h
    rbar = 0.5 * (rho + right)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(rbar > 0.0, g / rbar, 0.0)
    f = _gate(params.nu * rbar * saturating_flux(z, params), reached)
    return _divergence(f, grid)


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


def _cone_and_reached(state: HeatState, grid: LineGrid, params: ModelParams):
    cone = state.cone if state.cone is not None else \
        light_cone(state.rho, state.t, grid, params)
    reached = cone <= state.t
    if np.count_nonzero(reached) == reached.size:
        return ALL_OPEN, None
    return cone, reached


def reached_faces(state: HeatState, grid: LineGrid, params: ModelParams):
    """Boolean mask of the faces the cone has reached at state.t, or None
    when every face is open; the gate ``step_heat`` applies to this state."""
    return _cone_and_reached(state, grid, params)[1]


def stable_dt(grid: LineGrid, params: ModelParams) -> float:
    """Largest Euler step allowed by diffusion and, for finite c, the flux limit."""
    dt = 0.25 * grid.h**2 / params.nu
    if not params.classical:
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


def _advance(state: HeatState, flux: np.ndarray, grid: LineGrid,
             params: ModelParams, dt: float) -> HeatState:
    """Euler step of ``state`` from its ungated face flux: gate, telescope, check."""
    cone, reached = _cone_and_reached(state, grid, params)
    rho = state.rho + dt * _divergence(_gate(flux, reached), grid)
    if rho.min() < NEGATIVE_TOL:
        raise PositivityError(f"density undershoot {rho.min():.3e} below {NEGATIVE_TOL:g}")
    return HeatState(rho=rho, t=state.t + dt, cone=cone)


def step_heat(state: HeatState, grid: LineGrid, params: ModelParams,
              dt: float) -> HeatState:
    """One forward-Euler step in conservation form; mass is telescoped exactly.

    Faces the light cone has not reached at state.t carry zero flux.  A state
    without a cone gets one from its own density and time (``light_cone``),
    and the returned state carries it on, so a chain of steps keeps the
    support of the data it started from inside supp rho + B(c (t - t0)).
    Once every face is open the chain carries ``ALL_OPEN`` and the step is
    the ungated scheme.  Raises StabilityError for dt above ``stable_dt``
    and PositivityError on an undershoot below NEGATIVE_TOL.
    """
    _check_dt(dt, grid, params)
    return _advance(state, _flux(state.rho, grid, params)[0], grid, params, dt)


# ---------------------------------------------------------------------------
# diagnostics

def boltzmann_entropy(rho: np.ndarray, grid: LineGrid) -> float:
    """-sum rho log rho * h with 0 log 0 = 0."""
    contrib = np.where(rho > 0.0, rho * np.log(np.maximum(rho, 1e-300)), 0.0)
    return -float(contrib.sum()) * grid.h


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


def _saturation(flux: np.ndarray, rbar: np.ndarray, params: ModelParams) -> float:
    if params.classical:
        return 0.0
    cap = params.c * rbar
    top = float((np.abs(flux) - cap).max())
    ref = float(cap.max())
    return top / ref if ref > 0 else top


def saturation_excess(rho: np.ndarray, grid: LineGrid, params: ModelParams) -> float:
    """max(|F| - c rbar) over faces, normalized by max c rbar; <= O(eps) always.

    Measured on the ungated flux, which bounds the gated one face by face.
    """
    return _saturation(*_flux(rho, grid, params), params)


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
    step size is checked against ``stable_dt`` once, and each step evaluates
    the face flux of its state once: that one array gives the state's
    saturation excess and, gated, the Euler update (the arithmetic of
    ``step_heat``, bit for bit).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    n_steps, step_dt = time_steps(t_final, dt)
    _check_dt(step_dt, grid, params)
    rho0 = np.asarray(rho0, dtype=float).copy()
    state = HeatState(rho=rho0, t=0.0, cone=light_cone(rho0, 0.0, grid, params))
    records = []

    def record(st):
        if on_record is not None:
            records.append(on_record(st))

    record(state)
    max_sat = -math.inf
    min_ds = 0.0
    entropy = boltzmann_entropy(state.rho, grid)
    for k in range(n_steps):
        flux, rbar = _flux(state.rho, grid, params)
        max_sat = max(max_sat, _saturation(flux, rbar, params))
        state = _advance(state, flux, grid, params, step_dt)
        if k == n_steps - 1:
            state = replace(state, t=t_final)
        new_entropy = boltzmann_entropy(state.rho, grid)
        min_ds = min(min_ds, new_entropy - entropy)
        entropy = new_entropy
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            record(state)
    max_sat = max(max_sat, saturation_excess(state.rho, grid, params))
    return HeatRunResult(records=records, state=state,
                         max_saturation_excess=max_sat,
                         min_step_entropy_delta=min_ds)
