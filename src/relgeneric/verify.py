"""Randomized structure-verification suite.

Runs the seeded checks behind the `verify` experiment: pointwise model
identities (fluctuation-dissipation, positive semidefiniteness, bounded
velocity, classical limits), operator structure on a grid (antisymmetry,
symmetry, positivity, degeneracy, mass conservation) read from the whole
bracket matrices of L(z) and M(z) at one random state, functional-derivative
consistency, refinement orders (L dS, the transport at the Maxwellian and the
Jacobi residual of L(z), exact on linear functionals), the dual-assembly
identities of both solvers, and the stability of the kinetic split step at
the step stationary runs take.  Every check reports a measured value against
its tolerance; the suite is deterministic in the seed, so two runs on one
BLAS thread count (the package's default is one) produce byte-identical
reports: the LAPACK eigensolvers round differently on two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import generic as G
from . import heat as HT
from .config import VerifyOptions
from .errors import StabilityError
from .grid import LineGrid, PhaseGrid, unit_mass
from .kfp import KfpOperator, _transport_step
from .model import (HarmonicPotential, ModelParams, Potential, Variant,
                    ZeroPotential, auto_lq, auto_pmax, diffusion_matrix,
                    grid_fields, maxwellian, mobility_drift,
                    mobility_drift_divergence, velocity)
from .rng import SplitMix64


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    op: str          # "<=" or ">="
    passed: bool
    note: str = ""


def check(name, measured, tolerance, op="<=", note="") -> CheckResult:
    """The check that passes when ``measured`` is finite and ``measured op tolerance``."""
    ok = math.isfinite(measured) and (measured <= tolerance if op == "<=" else
                                      measured >= tolerance)
    return CheckResult(name=name, measured=float(measured), tolerance=float(tolerance),
                       op=op, passed=bool(ok), note=note)


# ---------------------------------------------------------------------------
# random field helpers

def random_field(rng: SplitMix64, shape) -> np.ndarray:
    return rng.uniforms(int(np.prod(shape)), -1.0, 1.0).reshape(shape)


def random_state(rng: SplitMix64, grid: PhaseGrid, params: ModelParams,
                 potential: Potential) -> G.State:
    """Positive mass-1 state: Boltzmann envelope times a bounded random factor."""
    rhat = grid_fields(grid, params, potential, None).rhat
    w = (rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * grid.q_mesh / grid.Lq
                                         + rng.uniform(0, 2 * np.pi))
         * np.exp(-0.5 * (grid.p_mesh - rng.uniform(-1, 1)) ** 2)
         + rng.uniform(-0.5, 0.5) * np.cos(4 * np.pi * grid.q_mesh / grid.Lq
                                           + rng.uniform(0, 2 * np.pi))
         * np.exp(-0.25 * (grid.p_mesh - rng.uniform(-1, 1)) ** 2))
    return G.State(rho=unit_mass(rhat * np.exp(w), grid.cell_volume, "the suite's random state",
                                 "grid.lq and grid.pmax"), e=rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------------------
# check groups

def _ratio(x, scale):
    """x / scale; NaN, which fails its check, when the scale overflowed."""
    return x / scale if math.isfinite(scale) else math.nan


def model_checks(rng: SplitMix64, n_samples: int) -> list[CheckResult]:
    out = []
    params = ModelParams(m=1.3, c=0.9, gamma=1.0, theta=1.0)
    mc = params.m * params.c

    p = rng.uniforms(n_samples * 3, -10.0 * mc, 10.0 * mc).reshape(-1, 3)
    drift = mobility_drift(p, Variant.DH, params)
    resid = np.linalg.norm(drift - p / params.m, axis=-1)
    allowance = 1.0 + np.linalg.norm(p, axis=-1) / params.m
    out.append(check("fluctuation-dissipation |D grad_p H - p/m| (DH)",
                      float((resid / allowance).max()), 1e-12,
                      note=f"{n_samples} momenta, d=3"))

    xi = rng.uniforms(n_samples * 3, -1.0, 1.0).reshape(-1, 3)
    dm = diffusion_matrix(p, Variant.DH, params)
    quad = np.einsum("ni,nij,nj->n", xi, dm, xi)
    out.append(check("diffusion matrix PSD: min xi^T D xi / |xi|^2",
                      float((quad / np.sum(xi * xi, axis=-1)).min()), -1e-14,
                      op=">=", note=f"{n_samples} (p, xi) pairs"))

    speed = np.linalg.norm(velocity(p, params), axis=-1)
    big = np.linalg.norm(velocity(np.array([[1e6, 0.0, 0.0]]), params), axis=-1)
    out.append(check("bounded velocity: max |grad_p H| / c",
                      float(max(speed.max(), big.max()) / params.c), 1.0 - 1e-15))

    fast = ModelParams(m=1.0, c=1e6, gamma=1.0, theta=1.0)
    pf = rng.uniforms(64 * 3, -5.0, 5.0).reshape(-1, 3)
    vel_dev = np.linalg.norm(velocity(pf, fast) - pf / fast.m, axis=-1) \
        / np.linalg.norm(pf / fast.m, axis=-1)
    dm_dev = np.abs(diffusion_matrix(pf, Variant.DH, fast) - np.eye(3)).max()
    out.append(check("classical limit c=1e6: velocity vs p/m", float(vel_dev.max()), 1e-6))
    out.append(check("classical limit c=1e6: D(p) vs identity", float(dm_dev), 1e-6))

    div = mobility_drift_divergence(p, Variant.DMR, params)
    out.append(check("DMR divergence bound: max(div - d/m)",
                      float((div - p.shape[-1] / params.m).max()), 1e-14))
    return out


def dense_matrix(apply, n: int) -> np.ndarray:
    """The n x n matrix whose column k is ``apply(e_k)``, e_k the flat unit
    vectors: one array, set and reset in place, which ``apply`` must not keep."""
    out, unit = np.empty((n, n)), np.zeros(n)
    for k in range(n):
        unit[k] = 1.0
        out[:, k] = apply(unit)
        unit[k] = 0.0
    return out


def _bracket_matrix(apply, grid: PhaseGrid) -> np.ndarray:
    """The matrix B of the bracket of the operator ``apply`` on the unit
    cotangents, the cells in row-major order and then e: B[a, b] = [e_a, e_b],
    so column b is ``apply(e_b)``, its rho-part times the cell volume."""
    def column(unit):                                         # unit[-1] is r
        drho, de = apply(G.CotangentVector(xi=unit[:-1].reshape(grid.shape), r=unit[-1]))
        return np.append(drho.reshape(-1) * grid.cell_volume, de)
    return dense_matrix(column, grid.Nq * grid.Np + 1)


def _least_eigenvalue(b: np.ndarray) -> float:
    """The least eigenvalue of (B + B^T)/2 over its largest magnitude; NaN,
    which fails its check, when that matrix is not finite."""
    sym = 0.5 * (b + b.T)
    if not np.isfinite(sym).all():
        return math.nan
    eig = np.linalg.eigvalsh(sym)
    return float(eig[0] / (np.abs(eig).max() + 1e-300))


def operator_checks(rng: SplitMix64, grid: PhaseGrid, params: ModelParams,
                    potential: Potential) -> list[CheckResult]:
    """The five operator properties on one random state, from the whole
    bracket matrices of L and of M for each variant; a verify config holds
    the grid to ``config.VERIFY_MAX_CELLS`` cells."""
    state = random_state(rng, grid, params, potential)
    brackets = [G.Brackets(state, grid, params, potential, variant)
                for variant in (Variant.DH, Variant.DMR)]
    lmat = _bracket_matrix(brackets[0].poisson, grid)   # L does not depend on the variant
    mmats = [_bracket_matrix(br.dissipative, grid) for br in brackets]
    size = f"{len(lmat)} x {len(lmat)}"

    def relative(residual, b):       # max|residual| / max|B|, NaN past the float range
        return _ratio(float(np.abs(residual).max()), float(np.abs(b).max()) + 1e-300)

    def column_mass(b):              # |sum| / sum|.| of each column's rho-part, as relative
        scales = np.abs(b[:-1]).sum(axis=0) + 1e-300
        ok = np.isfinite(scales).all()
        return float(np.max(np.abs(b[:-1].sum(axis=0)) / scales)) if ok else math.nan

    v_e, deg = G.gradient_energy(state, grid, params, potential), []
    for br in brackets:
        m_rho, m_e = br.dissipative(v_e)
        half_rho, half_e = br.dissipative(G.CotangentVector(v_e.xi, 0.0))
        ref = math.hypot(G.grid_norm(grid, half_rho), half_e) + 1e-300
        deg.append(_ratio(math.hypot(G.grid_norm(grid, m_rho), m_e), ref))
    return [
        check("Poisson bracket antisymmetry (relative)", relative(lmat + lmat.T, lmat), 1e-12,
              note=f"{size}, one state"),
        check("dissipative bracket symmetry (relative)",
              float(np.max([relative(m - m.T, m) for m in mmats])), 1e-12,
              note=f"{size}, both variants"),
        check("dissipative bracket positivity: min [v,v]/scale",
              float(np.min([_least_eigenvalue(m) for m in mmats])), -1e-14, op=">=",
              note="least over largest |eigenvalue|, both variants"),
        check("degeneracy |M dE| / |M (H,0)|", float(np.max(deg)), 1e-12,
              note="one state, both variants"),
        check("operator mass conservation (relative)",
              float(np.max([column_mass(b) for b in (lmat, *mmats)])), 1e-12,
              note="every column of L and both M")]


def gradient_checks(rng: SplitMix64, grid: PhaseGrid, params: ModelParams,
                    potential: Potential, n_checks: int) -> list[CheckResult]:
    # (name, functional, its gradient, the arguments both take after params)
    pairs = (("energy", G.energy_functional, G.gradient_energy, (potential,)),
             ("entropy", G.entropy_functional, G.gradient_entropy, ()))
    errors = [[] for _ in pairs]
    for _ in range(n_checks):
        state = random_state(rng, grid, params, potential)
        delta = random_field(rng, grid.shape) * state.rho   # keeps rho positive
        de = rng.uniform(-1.0, 1.0)
        eps = 1e-5
        plus = G.State(state.rho + eps * delta, state.e + eps * de)
        minus = G.State(state.rho - eps * delta, state.e - eps * de)
        for k, (_, functional, gradient, more) in enumerate(pairs):
            v = gradient(state, grid, params, *more)
            fd = (functional(plus, grid, params, *more)
                  - functional(minus, grid, params, *more)) / (2 * eps)
            predicted = G.inner(grid, v.xi, delta) + v.r * de
            errors[k].append(_ratio(abs(fd - predicted), abs(fd) + 1e-300))
    return [check(f"{name} gradient vs directional finite difference", float(np.max(e)), 1e-6,
                   note=f"{n_checks} perturbations") for (name, *_), e in zip(pairs, errors)]


def _refinement_order(resid) -> tuple[float, str]:
    """The order at which residuals on n x n grids, n = 32, 64, 128, fall (a
    least-squares fit of their logs), and a note listing them."""
    slope = -float(np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(resid), 1)[0])
    return slope, "residuals " + " ".join(f"{r:.3e}" for r in resid)


def _lie(grid: PhaseGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = grad_q a grad_p b - grad_p a grad_q b on generic's stencils, so
    that <a, L(rho) b> = <rho, [a, b]>, as div_p = -grad_p^T and grad_q^T = -grad_q."""
    return G.grad_q(grid, a) * G.grad_p(grid, b) - G.grad_p(grid, a) * G.grad_q(grid, b)


def refinement_checks() -> list[CheckResult]:
    """L dS, transport-at-Maxwellian and Jacobi residuals under grid refinement.

    The Jacobi residual of L(z) is exact on the linear functionals A = <a, rho>:
    {A, B} = <rho, [a, b]> is linear again, so {{A, B}, C} = <rho, [[a, b], c]>.
    """
    params = ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)
    rel = ModelParams(m=1.0, c=4.0, gamma=0.5, theta=1.0)
    hpot = HarmonicPotential(stiffness=1.0)
    l_ds, transport, jacobi, identity = [], [], [], []
    for n in (32, 64, 128):
        grid = PhaseGrid(Nq=n, Np=n, Lq=16.0, Pmax=10.0)
        kq, p = 2 * np.pi * grid.q_mesh / grid.Lq, grid.p_mesh
        env = np.exp(-0.125 * p**2)
        rho = np.exp(-0.5 * p**2) * np.exp(0.4 * np.sin(kq) * env)
        rho /= float(np.sum(rho)) * grid.cell_volume
        br = G.Brackets(G.State(rho, 0.0), grid, params, ZeroPotential(), Variant.DH)
        l_ds.append(br.degeneracy_residuals()[0])
        a, b = np.sin(kq) * p * env, np.cos(kq + 0.7) * (p - 0.5) ** 2 * env
        c = np.sin(2 * kq + 1.1) * (0.3 + p) * env
        pairs = ((a, b), (b, c), (c, a))
        lies = [_lie(grid, x, y) for x, y in pairs]
        terms = [G.inner(grid, rho, _lie(grid, xy, z)) for xy, z in zip(lies, (c, a, b))]
        jacobi.append(abs(sum(terms)) / max(abs(t) for t in terms))
        for (x, y), xy in zip(pairs, lies):
            closed = G.inner(grid, rho, xy)
            bracket = br.poisson_bracket(G.CotangentVector(x, 0.0), G.CotangentVector(y, 0.0))
            identity.append(abs(bracket - closed) / abs(closed))
        grid = PhaseGrid(Nq=n, Np=n, Lq=auto_lq(rel, hpot.stiffness), Pmax=auto_pmax(rel))
        state = G.State(maxwellian(grid, rel, hpot)[0], 0.0)
        v_e = G.gradient_energy(state, grid, rel, hpot)
        l_rho, _ = G.Brackets(state, grid, rel, hpot, Variant.DH).poisson(v_e)
        transport.append(G.grid_norm(grid, l_rho))
    slope, note = _refinement_order(l_ds)
    out = [check("L dS refinement order in [1.7, 2.3] (32/64/128)", slope, 1.7, op=">=",
                  note=note),
           check("L dS refinement order upper bound", slope, 2.3)]
    slope, note = _refinement_order(transport)
    out.append(check("transport residual at Maxwellian: refinement order",
                      slope, 1.7, op=">=", note=note))
    slope, note = _refinement_order(jacobi)
    out += [check("Jacobi residual of L(z): refinement order", slope, 1.7, op=">=", note=note),
            check("L(z) bracket vs closed form <rho, [a, b]> (relative)", max(identity), 1e-12,
                  note="(a, b), (b, c), (c, a) on 32/64/128")]
    return out


def assembly_checks(rng: SplitMix64, grid: PhaseGrid, params: ModelParams,
                    potential: Potential, ops: dict, n_states: int) -> list[CheckResult]:
    """Dual assemblies: the kinetic ones of ``ops``, {variant: KfpOperator}, and heat's."""
    out, errors = [], []
    for _ in range(n_states):
        state = random_state(rng, grid, params, potential)
        for variant, op in ops.items():
            drho1, de1 = op.rhs(state)
            br = G.Brackets(state, grid, params, potential, variant)
            l_rho, l_e = br.poisson(G.gradient_energy(state, grid, params, potential))
            m_rho, m_e = br.dissipative(br.entropy_gradient)
            drho2, de2 = l_rho + m_rho, l_e + m_e
            scale = max(np.abs(drho1).max(), np.abs(drho2).max(),
                        abs(de1), abs(de2), 1e-300)
            errors += [_ratio(float(np.abs(drho1 - drho2).max()), scale),
                       _ratio(abs(de1 - de2), scale)]
    out.append(check("kinetic dual assembly: rhs vs L dE + M dS", float(np.max(errors)), 1e-10,
                      note=f"{n_states} states, both variants"))

    hgrid = LineGrid(N=64, L=2.0)
    hparams = ModelParams(m=1.0, c=1.0, gamma=1.0, theta=1.0, nu=1.0)
    worst = 0.0
    for _ in range(n_states):
        rho = 0.2 + rng.uniforms(hgrid.N)
        r1 = HT.heat_rhs(rho, hgrid, hparams)
        r2 = HT.heat_rhs_via_potential(rho, hgrid, hparams)
        scale = float(np.abs(r1).max()) + 1e-300
        worst = max(worst, float(np.abs(r1 - r2).max()) / scale)
    out.append(check("heat dual assembly: flux form vs dissipation potential",
                      worst, 1e-12, note=f"{n_states} positive states"))
    return out


def split_step_matrix(op: KfpOperator, dt: float) -> np.ndarray:
    """The matrix of one split step D(dt/2) T D(dt/2) on the density, built
    column by column from the stepper's kernels; dt is not checked against
    the stability bound, and no positivity check runs."""
    out = np.empty(op.grid.shape)

    def column(unit):
        op._dissipate_into(unit.reshape(op.grid.shape), 0.5 * dt, op._mid)
        _transport_step(op._mid, op, dt, out)
        op._dissipate_into(out, 0.5 * dt, out)
        return out.ravel()
    return dense_matrix(column, op.grid.Nq * op.grid.Np)


def step_checks(grid: PhaseGrid, params: ModelParams,
                potential: Potential) -> list[CheckResult]:
    """The spectral radius less 1 of the split step at ``stable_dt``, the step
    of stationary runs, for the worse of DH and DMR: on 12 x 24 cells of the
    suite's domain and model, as the suite's own grid may be too coarse to show
    the momentum edges or too fine for a dense eigensolve.  NaN, which fails,
    when a matrix is not finite or a dissipative map cannot be built."""
    small = PhaseGrid(Nq=12, Np=24, Lq=grid.Lq, Pmax=grid.Pmax)
    excess = []
    for variant in (Variant.DH, Variant.DMR):
        try:
            op = KfpOperator(small, params, potential, variant)
            step = split_step_matrix(op, op.stable_dt())
            finite = np.isfinite(step).all()
            radius = float(np.abs(np.linalg.eigvals(step)).max()) if finite else math.nan
        except StabilityError:
            radius = math.nan
        excess.append(radius - 1.0)
    return [check("split step at stable_dt: spectral radius - 1", float(np.max(excess)), 1e-12,
                  note="12 x 24 cells, worse of DH and DMR")]


# ---------------------------------------------------------------------------
# suite driver

def run_verify(grid: PhaseGrid, params: ModelParams, potential: Potential,
               seed: int, opts: VerifyOptions):
    """Run every check group; returns (results, report_text, all_passed).

    The DH and DMR operators are built first, drawing no random numbers, so
    their build names a bad model before any check reads it; the groups on that
    model fail an overflow as NaN (``_ratio``), without numpy's warnings.
    """
    ops = {variant: KfpOperator(grid, params, potential, variant)
           for variant in (Variant.DH, Variant.DMR)}
    rng = SplitMix64(seed)
    results = model_checks(rng, opts.fd_samples)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results += operator_checks(rng, grid, params, potential)
        results += gradient_checks(rng, grid, params, potential, opts.gradient_checks)
    results += refinement_checks()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results += assembly_checks(rng, grid, params, potential, ops, opts.assembly_states)
        results += step_checks(grid, params, potential)
    return results, format_report(results, seed), all(r.passed for r in results)


def format_report(results, seed: int) -> str:
    width = max(len(r.name) for r in results) + 2
    lines = [f"structure verification report (seed {seed})",
             "=" * (width + 42)]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}{r.measured: .6e} {r.op} "
                     f"{r.tolerance: .1e}  {status}"
                     + (f"  [{r.note}]" if r.note else ""))
    lines.append("=" * (width + 42))
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed"
                 + ("" if n_fail == 0 else f", {n_fail} FAILED"))
    return "\n".join(lines) + "\n"
