"""Uniform tensor grids: periodic position axis, truncated momentum axis.

Also the rules every consumer of a grid shares: M's momentum face pair
``face_grad_p``/``face_div_p``, which ``model.grid_fields`` applies to H as
well, so that M dE = 0 by construction; ``unit_mass``; and ``time_steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError

# A run needing more steps than this would not end in any useful time (the
# committed configs need at most 16384, heat_bump: N = 512, dt = 2^-15 to
# t = 0.5); time_steps rejects it up front.
MAX_STEPS = 10**8


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform (q, p) grid for the d=1 kinetic solvers.

    Position axis: Nq cells on [-Lq/2, Lq/2), periodic.
    Momentum axis: Np cells on [-Pmax, Pmax], zero-flux faces at the ends.
    Cell centers sit at the midpoints; fields are arrays of shape (Nq, Np).
    """

    Nq: int
    Np: int
    Lq: float
    Pmax: float

    def __post_init__(self):
        for name in ("Nq", "Np"):
            n = getattr(self, name)
            if not (isinstance(n, int) and n >= 8 and n % 2 == 0):
                raise ValueError(f"{name} must be an even integer >= 8, got {n}")
        if not self.Lq > 0:
            raise ValueError(f"Lq must be > 0, got {self.Lq}")
        if not self.Pmax > 0:
            raise ValueError(f"Pmax must be > 0, got {self.Pmax}")

    @property
    def hq(self) -> float:
        return self.Lq / self.Nq

    @property
    def hp(self) -> float:
        return 2.0 * self.Pmax / self.Np

    @property
    def q(self) -> np.ndarray:
        return -0.5 * self.Lq + (np.arange(self.Nq) + 0.5) * self.hq

    @property
    def p(self) -> np.ndarray:
        return -self.Pmax + (np.arange(self.Np) + 0.5) * self.hp

    @property
    def p_faces(self) -> np.ndarray:
        """Interior momentum faces, between cells j and j+1."""
        return -self.Pmax + np.arange(1, self.Np) * self.hp

    @property
    def q_mesh(self) -> np.ndarray:
        return np.broadcast_to(self.q[:, np.newaxis], (self.Nq, self.Np))

    @property
    def p_mesh(self) -> np.ndarray:
        return np.broadcast_to(self.p[np.newaxis, :], (self.Nq, self.Np))

    @property
    def cell_volume(self) -> float:
        return self.hq * self.hp

    @property
    def shape(self) -> tuple:
        return (self.Nq, self.Np)


def face_grad_p(grid: PhaseGrid, a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Two-point gradient on interior momentum faces, shape (Nq, Np-1)."""
    if out is None:
        out = np.empty((a.shape[0], a.shape[1] - 1), np.result_type(a, 1.0))
    np.subtract(a[:, 1:], a[:, :-1], out=out)
    out /= grid.hp
    return out


def face_div_p(grid: PhaseGrid, f: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Flux divergence from interior momentum faces; zero flux at +-Pmax."""
    if out is None:
        out = np.empty((f.shape[0], f.shape[1] + 1), np.result_type(f, 1.0))
    # f - 0 and 0 - f as written out, so that signed zeros come out the same
    np.subtract(f[:, 0], 0.0, out=out[:, 0])
    np.subtract(f[:, 1:], f[:, :-1], out=out[:, 1:-1])
    np.subtract(0.0, f[:, -1], out=out[:, -1])
    out /= grid.hp
    return out


@dataclass(frozen=True)
class LineGrid:
    """Periodic 1-D grid for the heat solver: N cells on [0, L)."""

    N: int
    L: float

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 8):
            raise ValueError(f"N must be an integer >= 8, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"L must be > 0, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) * self.h


def unit_mass(rho: np.ndarray, cell: float, what: str, keys: str) -> np.ndarray:
    """rho at discrete mass 1 on cells of size ``cell``; a ValueError naming
    ``what`` and the ``keys`` to check when its mass is not finite and positive,
    or too small to scale rho to mass 1 within the float range."""
    mass = float(np.sum(rho)) * cell
    if not 0.0 < mass < math.inf:
        raise ValueError(f"{what} has mass {mass!r} on the grid, not a finite positive "
                         f"number; check {keys}")
    with np.errstate(over="ignore"):
        scaled = rho / mass
    if not np.isfinite(scaled).all():
        raise ValueError(f"{what} has mass {mass!r} on the grid, too small to scale it to "
                         f"mass 1 within the float range; check {keys}")
    return scaled


def time_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Equal steps of at most dt (to 1e-12) landing exactly on t_final: (count, size).

    Raises StabilityError when no finite count of such steps exists, or when
    the count exceeds MAX_STEPS.
    """
    if not (dt > 0 and math.isfinite(t_final / dt)):
        raise StabilityError(f"no finite number of steps of dt={dt:g} reaches "
                             f"t_final={t_final:g}")
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    if n_steps > MAX_STEPS:
        raise StabilityError(f"reaching t_final={t_final:g} in steps of dt={dt:g} takes "
                             f"{n_steps:.3g} steps, more than the limit {MAX_STEPS:.0e}")
    return n_steps, t_final / n_steps
