"""Physical model layer.

Parameters, external potentials, the relativistic/classical kinetic
energies and their momentum gradients, the two diffusion matrices, the
momentum-tail rule with the ``auto`` domain edges, the grid-constant fields
and the closed-form equilibrium (Maxwellian) density on a phase-space grid.

Vector-valued arguments (positions ``q``, momenta ``p``) carry the spatial
dimension on the last axis, so every function broadcasts over arbitrary
leading batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import PhaseGrid, face_grad_p

#: Distinguished speed-of-light value selecting the classical (Newtonian) mode.
INFINITE = math.inf


class Variant(Enum):
    """Which relativistic kinetic Fokker-Planck model the diffusion matrix
    belongs to; at c = INFINITE both are the classical Kramers equation."""

    DMR = "dmr"            # identity diffusion, relativistic drift
    DH = "dh"              # momentum-dependent diffusion, linear drift


@dataclass(frozen=True)
class ModelParams:
    m: float = 1.0       # rest mass
    c: float = 1.0       # speed of light, INFINITE selects classical mode
    gamma: float = 1.0   # friction coefficient
    theta: float = 1.0   # temperature kT
    nu: float = 1.0      # thermal diffusivity (heat equation only)

    def __post_init__(self):
        for name in ("m", "gamma", "theta", "nu"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not self.c > 0:
            raise ValueError(f"c must be positive (or INFINITE), got {self.c}")

    @property
    def classical(self) -> bool:
        return math.isinf(self.c)


# ---------------------------------------------------------------------------
# external potentials (all nonnegative)

class Potential:
    """Nonnegative external potential V(q); the solvers sample it on the grid."""

    def evaluate(self, q):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(Potential):
    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1])


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    stiffness: float

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and self.stiffness >= 0):
            raise ValueError(f"harmonic stiffness must be >= 0, got {self.stiffness}")

    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        return 0.5 * self.stiffness * np.sum(q * q, axis=-1)


@dataclass(frozen=True)
class CosinePotential(Potential):
    """V(q) = a * sum_i (1 + cos(2 pi q_i / period)), nonnegative for a >= 0."""

    amplitude: float
    period: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"cosine amplitude must be >= 0, got {self.amplitude}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"cosine period must be > 0, got {self.period}")

    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        return self.amplitude * np.sum(1.0 + np.cos(2.0 * np.pi * q / self.period), axis=-1)


# ---------------------------------------------------------------------------
# pointwise kinetic quantities

def _as_vectors(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[np.newaxis]
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


def kinetic_energy(p, params: ModelParams):
    """c*sqrt(m^2 c^2 + |p|^2), or |p|^2/(2m) in classical mode."""
    p = _as_vectors(p)
    psq = np.sum(p * p, axis=-1)
    if params.classical:
        return psq / (2.0 * params.m)
    mc = params.m * params.c
    return params.c * np.sqrt(mc * mc + psq)


def hamiltonian(q, p, params: ModelParams, potential: Potential):
    """Total one-particle energy: kinetic(p) + V(q)."""
    q = _as_vectors(q)
    return kinetic_energy(p, params) + potential.evaluate(q)


def velocity(p, params: ModelParams):
    """Momentum gradient of the kinetic energy; norm < c for finite c."""
    p = _as_vectors(p)
    if params.classical:
        return p / params.m
    mc = params.m * params.c
    psq = np.sum(p * p, axis=-1, keepdims=True)
    return params.c * p / np.sqrt(mc * mc + psq)


def diffusion_matrix(p, variant: Variant, params: ModelParams):
    """Momentum diffusion matrix: D(p) for DH at finite c, else the identity.

    D(p) = (mc / sqrt(m^2 c^2 + |p|^2)) * (I + p (x) p / (m^2 c^2)),
    symmetric positive semidefinite for every p.
    """
    p = _as_vectors(p)
    d = p.shape[-1]
    eye = np.eye(d)
    if variant is not Variant.DH or params.classical:
        return np.broadcast_to(eye, p.shape[:-1] + (d, d)).copy()
    mc = params.m * params.c
    psq = np.sum(p * p, axis=-1)[..., np.newaxis, np.newaxis]
    outer = p[..., :, np.newaxis] * p[..., np.newaxis, :]
    return (mc / np.sqrt(mc * mc + psq)) * (eye + outer / (mc * mc))


def mobility_drift(p, variant: Variant, params: ModelParams):
    """D(p) applied to the velocity; equals p/m for DH and at c = INFINITE."""
    dm = diffusion_matrix(p, variant, params)
    return np.einsum("...ij,...j->...i", dm, velocity(p, params))


def mobility_drift_divergence(p, variant: Variant, params: ModelParams):
    """Momentum divergence of the mobility drift; bounded above by d/m."""
    p = _as_vectors(p)
    d = p.shape[-1]
    if variant is not Variant.DMR or params.classical:
        return np.full(p.shape[:-1], d / params.m)
    mc = params.m * params.c
    psq = np.sum(p * p, axis=-1)
    s2 = mc * mc + psq
    return params.c * (d / np.sqrt(s2) - psq / s2**1.5)


# ---------------------------------------------------------------------------
# equilibrium density on a phase grid (d = 1)

#: pointwise tail criterion: exp(-(kinetic(Pmax)-kinetic(0))/theta) must be below this
TAIL_CUTOFF = 1e-14
_TAIL_EXPONENT = -math.log(TAIL_CUTOFF) + 1.0     # the tail edges', with a margin of 1
#: ``auto`` domain edges lie this factor beyond their tail edge; an explicit Pmax may lie
#: as far inside ``tail_exponent_momentum``
EDGE_MARGIN = 1.01


def tail_weight(params: ModelParams, pmax: float) -> float:
    """Boltzmann weight of the momentum-domain edge relative to p = 0."""
    edge = float(kinetic_energy(np.array([pmax]), params))
    base = float(kinetic_energy(np.array([0.0]), params))
    return math.exp(-(edge - base) / params.theta)


def tail_exponent_momentum(params: ModelParams) -> float:
    """Smallest Pmax whose Boltzmann tail weight is safely below the cutoff."""
    a = params.theta * _TAIL_EXPONENT
    if params.classical:
        return math.sqrt(2.0 * params.m * a)
    mc = params.m * params.c
    x = a / params.c
    # sqrt((mc + x)^2 - (mc)^2), factored: squaring m c overflows for huge c,
    # and the difference cancels to 0 once x is below an ulp of m c
    return math.sqrt(2.0 * x) * math.sqrt(mc + 0.5 * x)


def auto_pmax(params: ModelParams) -> float:
    """The ``auto`` momentum edge: the tail edge with its margin."""
    return tail_exponent_momentum(params) * EDGE_MARGIN


def auto_lq(params: ModelParams, stiffness: float) -> float:
    """The ``auto`` position domain: a harmonic trap's tail edge, else 4 pi."""
    return (2.0 * math.sqrt(2.0 * params.theta * _TAIL_EXPONENT / stiffness) * EDGE_MARGIN
            if stiffness > 0 else 4.0 * math.pi)


class GridFields(NamedTuple):
    """Grid-constant fields of one (grid, params, potential, variant); read-only."""

    h_cells: np.ndarray    # H at cell centers
    rhat: np.ndarray       # Boltzmann weight exp(-(H - min H)/theta) at cells
    rhat_face: np.ndarray  # geometric mean of rhat on interior momentum faces
    gh_face: np.ndarray    # face_grad_p of h_cells
    dface: np.ndarray | None   # diffusion coefficient on faces; None without a variant


@lru_cache(maxsize=8)
def grid_fields(grid: PhaseGrid, params: ModelParams, potential: Potential,
                variant: Variant | None) -> GridFields:
    """Build the grid-constant fields once per (grid, params, potential, variant).

    Every argument is a frozen, hashable value, so the fields are memoized;
    the arrays are read-only because all callers share them.  With
    ``variant=None`` the variant-free fields are built and ``dface`` is None;
    a variant entry reuses those arrays and adds its face diffusion.  Raises
    ValueError when H, its face gradient or the face diffusion is not finite
    on the grid.
    """
    if variant is not None:
        base = grid_fields(grid, params, potential, None)
        mc = params.m * params.c
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # reported below
            d = (np.sqrt(mc * mc + grid.p_faces**2) / mc
                 if variant is Variant.DH and not params.classical else 1.0)
        if not np.all(np.isfinite(d)):
            raise ValueError("the DH diffusion sqrt(m^2 c^2 + p^2) / (m c) is not finite on "
                             "the grid; check model.c and model.m against grid.pmax")
        return base._replace(dface=np.broadcast_to(d, base.gh_face.shape))
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow is reported below
        h = hamiltonian(grid.q_mesh[..., np.newaxis], grid.p_mesh[..., np.newaxis],
                        params, potential)
        gh_face = face_grad_p(grid, h)      # the one M applies, so M dE = 0 exactly
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(gh_face))):
        raise ValueError("the Hamiltonian or its momentum gradient is not finite on the grid; "
                         "check model.c, model.m and the potential parameters against it")
    # the gauge min H keeps the weight representable even when the rest energy
    # m c^2 is huge; all consumers use ratios, which are gauge-independent.  An
    # exponent that overflows has the weight's limit, 0, which the operator names
    with np.errstate(over="ignore"):
        rhat = np.exp(-(h - float(h.min())) / params.theta)
    fields = GridFields(h_cells=h, rhat=rhat, rhat_face=np.sqrt(rhat[:, :-1] * rhat[:, 1:]),
                        gh_face=gh_face, dface=None)
    for a in (h, rhat, fields.rhat_face, fields.gh_face):
        a.flags.writeable = False
    return fields


def maxwellian(grid: PhaseGrid, params: ModelParams, potential: Potential):
    """Grid-sampled equilibrium density rho_inf = Z^-1 exp(-H/theta) and Z.

    Z is the midpoint-quadrature normalizer of the gauged weight
    exp(-(H - min H)/theta), so the discrete mass of rho_inf is exactly 1.
    Fails if the momentum truncation leaves a tail above TAIL_CUTOFF.
    """
    w = tail_weight(params, grid.Pmax)
    if not w < TAIL_CUTOFF:
        raise ValueError(
            f"momentum domain under-resolved: tail weight {w:.3e} at Pmax={grid.Pmax} "
            f"is not below {TAIL_CUTOFF:.0e}; enlarge grid.Pmax")
    weight = grid_fields(grid, params, potential, None).rhat
    z = float(np.sum(weight)) * grid.cell_volume
    return weight / z, z
