import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relgeneric
from relgeneric import generic as G
from relgeneric import heat as H
from relgeneric import kfp as K
from relgeneric.cli import _RUNNERS, main
from relgeneric.config import ConfigError, VerifyOptions, load_config, parse_config
from relgeneric.errors import StabilityError
from relgeneric import verify as V
from relgeneric.model import INFINITE, Variant
from relgeneric.rng import SplitMix64
from relgeneric.verify import check, operator_checks, run_verify

from conftest import (EXTREME, perturb_drift, printed_checks, reported_checks,
                      run_to_named_outcome)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def quick_opts():
    return VerifyOptions(fd_samples=500, gradient_checks=3, assembly_states=3)


@pytest.fixture
def verify_cfg():
    return load_config(CONFIGS / "verify.cfg", "verify")


def test_quick_suite_passes(verify_cfg):
    results, report, ok = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                                     verify_cfg.potential, seed=1, opts=quick_opts())
    assert ok, report
    assert "FAIL" not in report


def test_report_deterministic(verify_cfg):
    _, r1, _ = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                          verify_cfg.potential, seed=1, opts=quick_opts())
    _, r2, _ = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                          verify_cfg.potential, seed=1, opts=quick_opts())
    assert r1.encode() == r2.encode()


def test_report_depends_on_seed(verify_cfg):
    _, r1, _ = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                          verify_cfg.potential, seed=1, opts=quick_opts())
    _, r2, _ = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                          verify_cfg.potential, seed=2, opts=quick_opts())
    assert r1 != r2


def test_drift_perturbation_fails_degeneracy(verify_cfg, monkeypatch):
    # sensitivity control: a 1e-6 drift-column perturbation must break M dE = 0
    perturb_drift(monkeypatch, 1e-6)
    results, report, ok = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                                     verify_cfg.potential, seed=1, opts=quick_opts())
    assert not ok
    failing = [r.name for r in results if not r.passed]
    assert any("degeneracy" in name for name in failing)


def test_operator_checks_take_one_face_density_per_state_and_variant(verify_cfg,
                                                                      monkeypatch):
    # the checks read one random state: M(z) is built once per variant, and
    # its face density taken once, for all 1,025 unit cotangents it is applied to
    calls = []
    log_mean = G.log_mean
    monkeypatch.setattr(G, "log_mean",
                        lambda *args, **kw: calls.append(1) or log_mean(*args, **kw))
    results = operator_checks(SplitMix64(1), verify_cfg.phase_grid, verify_cfg.params,
                              verify_cfg.potential)
    assert all(r.passed for r in results)
    assert len(calls) == 2


def test_bracket_checks_pass_on_nearly_cancelling_pair(verify_cfg):
    # seed 1901025285 once drew a pair whose Poisson bracket nearly vanished,
    # where a pairwise residual read 1.4e-12; the whole matrices hold every
    # such pair, and their residuals stay at round-off relative to max|B|
    results, report, ok = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                                     verify_cfg.potential, seed=1901025285,
                                     opts=verify_cfg.verify)
    assert ok, report
    assert "21/21 checks passed" in report
    brackets = [r for r in results if "bracket" in r.name and "symmetry" in r.name]
    assert len(brackets) == 2 and all(r.measured <= 1e-15 for r in brackets)


IDENTITY = "L(z) bracket vs closed form <rho, [a, b]> (relative)"


def test_bracket_check_catches_nonantisymmetric_poisson(verify_cfg, monkeypatch):
    # sensitivity control: L' = (1 + 1e-8 w) L with a non-constant weight w
    # is no longer antisymmetric, and the scaled check must see it; nor is it
    # the closed form's L on the refinement grids (on every grid the suite builds)
    grid = verify_cfg.phase_grid
    apply = G.Brackets.poisson

    def skewed(self, v):
        drho, de = apply(self, v)
        g = self.grid
        weight = 1.0 + 1e-8 * np.cos(2 * np.pi * g.q_mesh / g.Lq) * np.tanh(g.p_mesh)
        return weight * drho, de

    monkeypatch.setattr(G.Brackets, "poisson", skewed)
    results, report, ok = run_verify(grid, verify_cfg.params, verify_cfg.potential,
                                     seed=1, opts=quick_opts())
    failing = [r.name for r in results if not r.passed]
    assert "Poisson bracket antisymmetry (relative)" in failing, report
    assert IDENTITY in failing, report
    assert not ok


def test_jacobi_identity_check_catches_a_poisson_off_its_closed_form(verify_cfg, monkeypatch):
    # sensitivity control: L(z) y + 1e-3 rho moves <x, L(z) y> off <rho, [x, y]>
    # by 1e-3 <x, rho>, and the identity check must see it (a pair led by the
    # check's a, odd in p against an even rho, is blind to it; its other two are not)
    apply = G.Brackets.poisson

    def shifted(self, v):
        drho, de = apply(self, v)
        return drho + 1e-3 * self.state.rho, de

    monkeypatch.setattr(G.Brackets, "poisson", shifted)
    results, report, ok = run_verify(verify_cfg.phase_grid, verify_cfg.params,
                                     verify_cfg.potential, seed=1, opts=quick_opts())
    check = next(r for r in results if r.name == IDENTITY)
    assert not check.passed and check.measured >= 1e-4, report
    assert not ok


def test_jacobi_residual_of_l_falls_at_second_order():
    # centred Lie-Poisson brackets keep antisymmetry but not Jacobi: the
    # residual is no round-off, and it falls at the order the check asserts
    jacobi = next(r for r in V.refinement_checks()
                  if r.name == "Jacobi residual of L(z): refinement order")
    assert jacobi.passed and 1.9 <= jacobi.measured <= 2.2, jacobi
    residuals = [float(x) for x in jacobi.note.split()[1:]]
    assert residuals[-1] >= 1e-3 and residuals == sorted(residuals, reverse=True)


STEP = "split step at stable_dt: spectral radius - 1"


def test_step_check_catches_a_step_past_the_polynomial_reach(verify_cfg, monkeypatch):
    # sensitivity control: stable_dt at 4x RK4's bound, past the 6-stage
    # polynomial's reach on the imaginary axis, fails the check
    monkeypatch.setattr(K, "LONG_REACH", 4.0)
    [step] = V.step_checks(verify_cfg.phase_grid, verify_cfg.params, verify_cfg.potential)
    assert not step.passed and step.measured > 1e-12, step


@pytest.mark.parametrize("name, weight", [
    # (1 + 1e-8 w) M with a non-constant w is no longer symmetric
    ("dissipative bracket symmetry (relative)",
     lambda g: 1.0 + 1e-8 * np.cos(2 * np.pi * g.q_mesh / g.Lq) * np.tanh(g.p_mesh)),
    # -M on the densities is indefinite
    ("dissipative bracket positivity: min [v,v]/scale", lambda g: -1.0)],
    ids=["symmetry", "positivity"])
def test_bracket_checks_catch_a_spoiled_dissipative_operator(verify_cfg, monkeypatch, name,
                                                             weight):
    # sensitivity controls: M with its rho-part times weight(grid) fails the
    # whole-matrix check named
    apply = G.Brackets.dissipative

    def spoiled(self, v):
        drho, de = apply(self, v)
        return weight(self.grid) * drho, de
    monkeypatch.setattr(G.Brackets, "dissipative", spoiled)
    results = operator_checks(SplitMix64(1), verify_cfg.phase_grid, verify_cfg.params,
                              verify_cfg.potential)
    check = next(r for r in results if r.name == name)
    assert not check.passed, results


# ---------------------------------------------------------------------------
# command-line interface

def run_cli(*args):
    return main(list(args))


def test_cli_verify_exit_codes(tmp_path):
    out = tmp_path / "out"
    code = run_cli("verify", "--config", str(CONFIGS / "verify.cfg"),
                   "--out", str(out), "--seed", "3")
    assert code == 0
    assert (out / "verify_report.txt").exists()


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.nu = -4\n")
    assert run_cli("heat", "--config", str(bad)) == 2
    missing = tmp_path / "nothere.cfg"
    assert run_cli("heat", "--config", str(missing)) == 2


def test_cli_heat_run(tmp_path):
    cfg = tmp_path / "heat.cfg"
    cfg.write_text("grid.n = 64\ngrid.length = 2.0\nsolver.t_final = 0.01\n"
                   "solver.record_every = 100\nmodel.c = 1.0\n"
                   "init.kind = gaussian\ninit.sigma = 0.2\n")
    out = tmp_path / "res"
    assert run_cli("heat", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "timeseries.csv").exists()
    assert (out / "density_final.txt").exists()


def test_cli_kfp_run_deterministic(tmp_path):
    cfg = tmp_path / "kfp.cfg"
    cfg.write_text("model.c = 1.0\ngrid.nq = 16\ngrid.np = 32\ngrid.lq = 12.566\n"
                   "grid.pmax = 34.0\nsolver.t_final = 0.05\nsolver.record_every = 2\n"
                   "potential.kind = cosine\npotential.amplitude = 1.0\n"
                   "init.kind = shifted-maxwellian\ninit.p0 = 0.3\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("kfp", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("kfp", "--config", str(cfg), "--out", str(out2)) == 0
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "density_final.txt").read_bytes() \
        == (out2 / "density_final.txt").read_bytes()


VERIFY_SMALL = ("verify.fd_samples = 100\nverify.assembly_states = 2\n"
                "grid.nq = 16\ngrid.np = 16\ngrid.lq = 16.0\ngrid.pmax = 34.0\n")
STATIONARY_CHECKS = ["mass drift", "relative energy drift", "entropy change per sample",
                     "relative entropy change per sample",
                     "d/dt int H rho vs gamma theta d/m", "L1 distance to the Maxwellian"]


@pytest.mark.parametrize("experiment, config", [
    ("heat", "heat_bump"), ("kfp", "kfp_conserve"), ("stationary", "stationary_dmr"),
    ("limit-study", "limit_kfp"), ("verify", None)])
def test_printed_verdicts_are_their_comparisons(tmp_path, capsys, experiment, config):
    # every verdict the CLI prints is its measured value compared with its tolerance
    if config is None:
        (path := tmp_path / "verify.cfg").write_text(VERIFY_SMALL)
    else:
        path = CONFIGS / f"{config}.cfg"
    code = run_cli(experiment, "--config", str(path), "--out", str(tmp_path / "o"))
    printed = capsys.readouterr().out
    checks = (reported_checks if experiment == "verify" else printed_checks)(printed)
    # each printed verdict is on a parsed check line
    assert len(checks) == len(re.findall(r"\b(?:PASS|FAIL)\b", printed)) > 0, printed
    for passed, _, measured, op, tolerance in checks:
        assert passed == (measured <= tolerance if op == "<=" else measured >= tolerance)
    assert code == (0 if all(passed for passed, *_ in checks) else 1)


def test_stationary_run_that_misses_its_target_writes_and_fails_its_l1_check(tmp_path,
                                                                                capsys):
    # stationary_dmr stopped at t = 2, far from its 1e-3 target: the outputs are
    # written and every check printed, and only the L1 check fails
    text = (CONFIGS / "stationary_dmr.cfg").read_text()
    (path := tmp_path / "short.cfg").write_text(
        text.replace("solver.t_final = 40.0", "solver.t_final = 2"))
    out = tmp_path / "o"
    assert run_cli("stationary", "--config", str(path), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (out / "timeseries.csv").is_file() and (out / "density_final.txt").is_file()
    checks = printed_checks(captured.out)
    assert [name for _, name, *_ in checks] == STATIONARY_CHECKS
    assert [passed for passed, *_ in checks] == [True] * 5 + [False]
    assert checks[-1][2] > 0.1 and checks[-1][4] == 1e-3


def test_limit_check_counts_a_non_falling_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("relgeneric.cli.run_limit_study",
                        lambda cfg: [(10.0, 1e-2), (100.0, 1e-2), (1000.0, 1e-4)])
    out = tmp_path / "o"
    assert run_cli("limit-study", "--config", str(CONFIGS / "limit_heat.cfg"),
                   "--out", str(out)) == 1
    assert printed_checks(capsys.readouterr().out) == [
        (False, "c pairs whose deviation does not fall", 1.0, "<=", 0.0)]
    assert (out / "limit_study.csv").read_text().splitlines()[1:] == [
        "10,0.01", "100,0.01", "1000,0.0001"]


HEAT_CHECKS = ["mass drift", "entropy change per step",
               "face-flux excess over c rbar (relative)"]


def _spoil_mass(res):
    res.records[-1] = replace(res.records[-1], mass=res.records[-1].mass + 1e-6)


@pytest.mark.parametrize("failing, spoil, line", [
    (0, _spoil_mass, "  [FAIL] mass drift: 1.000e-06 <= 1e-10"),
    (1, lambda res: setattr(res, "min_step_entropy_delta", -1e-6),
     "  [FAIL] entropy change per step: -1.000e-06 >= -1e-10"),
    (2, lambda res: setattr(res, "max_saturation_excess", 1e-6),
     "  [FAIL] face-flux excess over c rbar (relative): 1.000e-06 <= 1e-12")],
    ids=["mass-drift", "entropy-change", "flux-excess"])
def test_heat_check_that_fails_is_printed_and_exits_1(tmp_path, capsys, monkeypatch,
                                                      failing, spoil, line):
    # the real run with one check's input made worse: that check prints its
    # FAIL line, the other two pass, the outputs are written and the exit is 1
    run_heat = H.run_heat

    def worse(*args, **kwargs):
        res = run_heat(*args, **kwargs)
        spoil(res)
        return res
    monkeypatch.setattr("relgeneric.heat.run_heat", worse)
    (path := tmp_path / "heat.cfg").write_text(
        "grid.n = 64\nsolver.t_final = 0.01\ninit.kind = gaussian\ninit.sigma = 0.2\n")
    out = tmp_path / "o"
    assert run_cli("heat", "--config", str(path), "--out", str(out)) == 1
    printed = capsys.readouterr().out
    assert line in printed.splitlines()
    checks = printed_checks(printed)
    assert [name for _, name, *_ in checks] == HEAT_CHECKS
    assert [passed for passed, *_ in checks] == [k != failing for k in range(3)]
    assert (out / "timeseries.csv").is_file() and (out / "density_final.txt").is_file()


# a kinetic summary line: experiment, variant, end time, L1 distance, e_inf, records, step
SUMMARY = re.compile(r"^(kfp|stationary) run \((dh|dmr)\) ended at t=(\S+), L1 distance "
                     r"(\S+), excess e_inf=(\S+) \((\d+) records; dt (\S+) from (\S+); "
                     r"steps (\d+), transport evaluations (\d+)\) -> (.+)$", re.MULTILINE)


@pytest.mark.parametrize("experiment, dt, dt_from", [
    ("kfp", "auto", "transient_dt"), ("stationary", "auto", "stable_dt"),
    ("kfp", "0.01", "solver.dt"), ("stationary", "0.01", "solver.dt")])
def test_kinetic_runs_share_one_runner_and_summary_line(tmp_path, capsys, experiment, dt,
                                                        dt_from):
    # kfp and stationary are one runner; its line names the step integrate
    # took and what set it, and only a stationary run adds the L1 check
    assert _RUNNERS["stationary"] is _RUNNERS["kfp"]
    (path := tmp_path / "k.cfg").write_text(
        "potential.kind = cosine\ngrid.nq = 16\ngrid.np = 32\ninit.p0 = 0.5\n"
        f"solver.dt = {dt}\nsolver.t_final = 0.1\nsolver.record_every = 2\n"
        + ("stationary.l1_target = 0.05\n" if experiment == "stationary" else ""))
    cfg = load_config(path, experiment)
    res = K.integrate(K.KfpConfig(grid=cfg.phase_grid, params=cfg.params,
                                  potential=cfg.potential, variant=cfg.variant, dt=cfg.dt,
                                  t_final=cfg.t_final, record_every=cfg.record_every,
                                  init=cfg.init),
                      l1_stop=cfg.l1_target if experiment == "stationary" else None)
    assert res.dt_from == dt_from
    # e_inf is the initial state's energy functional less int H rho_inf, bit for bit
    grid, params, potential = cfg.phase_grid, cfg.params, cfg.potential
    state0 = K.make_initial_state(cfg.init, grid, params, potential)
    h_cells = K.KfpOperator(grid, params, potential, cfg.variant).h_cells
    assert res.e_inf == (G.energy_functional(state0, grid, params, potential)
                         - G.inner(grid, h_cells, res.rho_inf))
    out = tmp_path / "o"
    code = run_cli(experiment, "--config", str(path), "--out", str(out))
    printed = capsys.readouterr().out
    [line] = SUMMARY.findall(printed)
    last = res.records[-1]
    assert line == (experiment, "dh", f"{last.t:g}", f"{last.l1:.3e}", f"{res.e_inf:.6g}",
                    str(len(res.records)), f"{res.dt:.6g}", dt_from, str(res.steps),
                    str(res.evaluations), str(out))
    checks = printed_checks(printed)
    assert len(checks) == (6 if experiment == "stationary" else 5)
    assert code == (0 if all(passed for passed, *_ in checks) else 1)


@pytest.mark.parametrize("measured, op", [(np.inf, ">="), (-np.inf, "<="), (np.nan, "<=")])
def test_check_fails_a_measurement_that_is_not_finite(measured, op):
    assert not check("x", measured, 0.0, op).passed


VERIFY_TINY = ("grid.nq = 8\ngrid.np = 8\nverify.fd_samples = 1\nverify.gradient_checks = 1\n"
               "verify.assembly_states = 1\n")
LIMIT_KFP = "limit.kind = kfp\ngrid.nq = 8\ngrid.np = 16\n"


@pytest.mark.parametrize("experiment, text, named", [
    ("verify", VERIFY_TINY + "model.gamma = 1e150\nmodel.theta = 1e20\n",
     "the tendencies overflow: "),
    ("verify", VERIFY_TINY + "model.gamma = 1e308\n",
     "the dissipative operator's coefficients are not finite"),
    ("verify", VERIFY_TINY + "potential.kind = cosine\npotential.amplitude = 1e300\n",
     "the dissipative flux overflows: the Boltzmann weight falls to 0.000e+00"),
    ("limit-study", LIMIT_KFP + "model.theta = 1e300\nsolver.t_final = 0.01\n",
     "the Hamiltonian or its momentum gradient is not finite"),
    # m c^2 = 1e20 swamps |p|^2 / 2m up to Pmax = 4.1e10: H is the same on every cell
    ("verify", VERIFY_TINY + "model.m = 1e20\nmodel.theta = 0.25\n",
     "the transport rate on the grid is 0, so nothing moves: H takes one value on every "
     "cell, as when m c^2 swamps |p|^2 / 2m; check model.m, model.c and the potential\n")],
    ids=["verify-tendencies", "verify-coefficients", "verify-weight", "limit-hamiltonian",
         "verify-still"])
def test_bad_kinetic_model_is_named_by_the_operator_build_first(tmp_path, monkeypatch,
                                                                experiment, text, named):
    # verify builds its DH and DMR operators before any check group, and a
    # kinetic limit study its members' before their initial state, so the
    # build names the model, with no traceback and no warning before it
    ran = []
    for name in ("model_checks", "operator_checks"):
        monkeypatch.setattr(f"relgeneric.verify.{name}", lambda *args: ran.append(args))
    monkeypatch.setattr("relgeneric.limits.make_initial_state", lambda *args: ran.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        printed = run_to_named_outcome(experiment, text, tmp_path)
    assert printed.startswith(f"run failed: {named}"), printed
    assert not ran


# kinetic model values: the ends of the float range, and between
KINETIC = st.sampled_from(["1e-300", "1e-150", "1e-20", "0.25", "1", "4", "1e20", "1e150",
                           "1e300", "1e308"]) | EXTREME


@st.composite
def kinetic_models(draw):
    """m, gamma, theta, c and the grid extents each at its default or drawn,
    and a zero, harmonic or cosine potential at its default or a drawn strength."""
    text = ""
    for key in ("model.m", "model.gamma", "model.theta", "model.c", "grid.pmax", "grid.lq"):
        if draw(st.booleans()):
            text += f"{key} = {draw(KINETIC | st.just('inf') if key == 'model.c' else KINETIC)}\n"
    kind = draw(st.sampled_from(["zero", "harmonic", "cosine"]))
    text += f"potential.kind = {kind}\nmodel.variant = {draw(st.sampled_from(['dh', 'dmr']))}\n"
    if kind != "zero" and draw(st.booleans()):
        strength = "stiffness" if kind == "harmonic" else "amplitude"
        text += f"potential.{strength} = {draw(KINETIC | st.just('0'))}\n"
    return text


@settings(max_examples=100, deadline=None)
@given(text=kinetic_models())
@example(text="model.gamma = 1e150\nmodel.theta = 1e20\n")
@example(text="model.gamma = 1e308\n")
@example(text="potential.kind = cosine\npotential.amplitude = 1e300\n")
# the bracket of a unit cotangent overflows before gamma scales it
@example(text="model.m = 1e-300\nmodel.gamma = 1e-300\ngrid.pmax = 1e-20\n")
# a degeneracy norm beyond sqrt of the float range
@example(text="model.gamma = 106101.0\nmodel.theta = 1e150\n")
# random states of no finite mass; an entropy gradient that overflows
@example(text="grid.lq = 1e308\n")
@example(text="model.gamma = 1e-300\nmodel.theta = 1e308\ngrid.pmax = 4\n"
              "potential.kind = cosine\npotential.amplitude = 0\n")
def test_fuzzed_verify_runs_end_in_named_outcomes(tmp_path_factory, text):
    # an 8x8 suite at its smallest sizes ends in a named outcome
    # (run_to_named_outcome), and no floating-point warning comes before it
    text = VERIFY_TINY + text.replace("model.variant", "# model.variant")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        printed = run_to_named_outcome("verify", text, tmp_path_factory.mktemp("fuzz"))
    assert not caught, (text, printed, [str(w.message) for w in caught])
    # the suite once more, each group with numpy's warnings on: a group that
    # warns has failed a check, so run_verify's quiet groups hide no overflow
    try:
        cfg = parse_config(text, "verify")
        ops = {variant: K.KfpOperator(cfg.phase_grid, cfg.params, cfg.potential, variant)
               for variant in (Variant.DH, Variant.DMR)}
    except (ConfigError, StabilityError, ValueError):
        return                      # the run above ended in the same error
    grid, params, potential, opts = cfg.phase_grid, cfg.params, cfg.potential, cfg.verify
    rng = SplitMix64(cfg.seed)
    for group in (lambda: V.model_checks(rng, opts.fd_samples),
                  lambda: V.operator_checks(rng, grid, params, potential),
                  lambda: V.gradient_checks(rng, grid, params, potential, opts.gradient_checks),
                  lambda: V.assembly_checks(rng, grid, params, potential, ops,
                                            opts.assembly_states),
                  lambda: V.step_checks(grid, params, potential)):
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("always")
            try:
                results = group()
            except ValueError:      # a degenerate random state, which the run named
                return
        assert not caught or not all(r.passed for r in results), (text, results)


def test_a_bracket_that_overflows_fails_every_check_that_reads_it(tmp_path, capsys):
    # at m = gamma = 1e-300 on |p| <= 1e-20 the dissipative bracket of a unit
    # cotangent overflows before gamma scales it: each check that evaluates
    # it measures NaN and fails; the degeneracy's too, whose residual M dE is
    # exactly 0 but whose reference |M (H,0)| overflowed.  The split step's
    # check fails there too, on a radius within 1e-6 of 1 (8.2e-8 over it for
    # DH on its 12 x 24 cells): at h |A| ~ 1e22 the rounding of A's diagonal
    # (about 1e6) leaves the Maxwellian no exact fixed point of the half step
    (path := tmp_path / "v.cfg").write_text(
        VERIFY_TINY + "model.m = 1e-300\nmodel.gamma = 1e-300\ngrid.pmax = 1e-20\n")
    assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "o")) == 1
    failed = {name: measured for passed, name, measured, *_
              in reported_checks(capsys.readouterr().out) if not passed}
    assert sorted(failed) == ["degeneracy |M dE| / |M (H,0)|",
                              "dissipative bracket positivity: min [v,v]/scale",
                              "dissipative bracket symmetry (relative)",
                              "kinetic dual assembly: rhs vs L dE + M dS",
                              "operator mass conservation (relative)", STEP]
    assert all(np.isnan(v) for name, v in failed.items() if name != STEP)
    assert 1e-12 < failed[STEP] < 1e-6


HEAT_TINY = "grid.n = 16\nsolver.t_final = 1e-3\n"
MISSED = "initial profile has mass 0.0 on the grid, not a finite positive number; check "


@pytest.mark.parametrize("experiment, text, message", [
    ("heat", "init.kind = gaussian\ninit.sigma = 1e-300\n",
     f"the gaussian {MISSED}init.sigma, grid.length and grid.n"),
    ("heat", "init.kind = bump\ninit.width = 1e-300\n",
     f"the bump {MISSED}init.width, grid.length and grid.n"),
    ("limit-study", "limit.kind = heat\ninit.kind = bump\ninit.width = 1e-300\n",
     f"the bump {MISSED}init.width, grid.length and grid.n"),
    # mass 1e-320: rho / mass would leave the float range
    ("heat", "init.kind = uniform\ngrid.length = 1e-320\n",
     "the uniform initial profile has mass 9.96e-321 on the grid, too small to scale it to "
     "mass 1 within the float range; check grid.length and grid.n")],
    ids=["heat-gaussian", "heat-bump", "limit-heat-bump", "heat-mass-too-small"])
def test_heat_initial_data_the_cells_miss_is_named(tmp_path, capsys, experiment, text, message):
    # a profile narrower than a cell samples to 0 on every cell, and one of
    # mass 1e-320 cannot be scaled to 1; with no floating-point warning, the
    # run names it before any step
    (path := tmp_path / "h.cfg").write_text(HEAT_TINY + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(experiment, "--config", str(path), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"run failed: {message}\n"


def test_random_state_without_finite_positive_mass_is_named(tmp_path, capsys):
    # on grid.lq = 1e308 the suite's random factor sin(2 pi q / Lq) overflows
    # to NaN, a state on which the dissipative checks would measure 0 (its
    # face weight is 0): the run names it instead of checking it
    (path := tmp_path / "v.cfg").write_text(VERIFY_TINY + "grid.lq = 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == ("run failed: the suite's random state has mass nan on "
                                       "the grid, not a finite positive number; check "
                                       "grid.lq and grid.pmax\n")


@settings(max_examples=100, deadline=None)
@given(text=kinetic_models())
@example(text="model.theta = 1e300\n")
@example(text="model.gamma = 1e150\nmodel.theta = 1e20\ngrid.pmax = 1e300\ngrid.lq = 1\n"
              "potential.kind = harmonic\npotential.stiffness = 1e300\n")
@example(text="potential.kind = cosine\npotential.amplitude = 1e308\n")
def test_fuzzed_kinetic_limit_studies_end_in_named_outcomes(tmp_path_factory, text):
    # an 8x16 kinetic sweep of four of its members' transient steps ends in a
    # named outcome (run_to_named_outcome), and no floating-point warning
    # comes before it
    text = LIMIT_KFP + text
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = parse_config(text, "limit-study")
            dt = min(K.KfpOperator(cfg.phase_grid, replace(cfg.params, c=c), cfg.potential,
                                   cfg.variant).transient_dt()
                     for c in cfg.limit_cs + (INFINITE,))
            text += f"solver.t_final = {4.0 * dt!r}\n"
        except (ConfigError, StabilityError, ValueError):
            pass          # the run below ends in the same error
        printed = run_to_named_outcome("limit-study", text, tmp_path_factory.mktemp("fuzz"))
    assert not caught, (text, printed, [str(w.message) for w in caught])


def test_cli_entry_point_subprocess(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(VERIFY_SMALL)
    # the child imports the package under test, installed or not
    src = str(Path(relgeneric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "relgeneric.cli", "verify",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


@pytest.mark.parametrize("preset", [None, "3"])
def test_package_starts_blas_on_one_thread(preset):
    # a fresh interpreter that imports the package sees both BLAS thread
    # variables at 1 when they were unset, and keeps a value already set
    src = str(Path(relgeneric.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", "import os, relgeneric; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", preset or "1"]


def test_run_experiments_writes_timings(tmp_path):
    # each config run writes its exit code and wall time to <out-root>/timings.json
    script = CONFIGS.parent / "run_experiments.py"
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(script), "--out-root", str(out),
                           "--only", "heat_bump_classical", "kfp_conserve"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings) == ["heat_bump_classical", "kfp_conserve"]
    assert all(t["exit"] == 0 and 0.0 < t["wall_s"] < 60.0 for t in timings.values())


@pytest.mark.parametrize("decoy", [False, True])
def test_run_experiments_runs_its_own_checkout(tmp_path, decoy):
    # without PYTHONPATH, and with PYTHONPATH naming another relgeneric,
    # the script imports the package of its own checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if decoy:
        (tmp_path / "relgeneric").mkdir()
        (tmp_path / "relgeneric" / "__init__.py").write_text("")
        (tmp_path / "relgeneric" / "cli.py").write_text("raise ImportError('decoy')\n")
        env["PYTHONPATH"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(CONFIGS.parent / "run_experiments.py"),
                           "--out-root", str(tmp_path / "out"), "--only", "heat_bump_classical"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "heat_bump_classical" / "timeseries.csv").is_file()


def test_all_committed_configs_parse():
    # the benchmark's configs too; the test only reads them
    bench = CONFIGS.parents[1] / "perfbench" / "configs"
    for path in sorted(CONFIGS.glob("*.cfg")) + sorted(bench.glob("*.cfg")):
        text = path.read_text()
        experiment = next(line.split("=")[1].strip()
                          for line in text.splitlines()
                          if line.strip().startswith("experiment"))
        parse_config(text, experiment)


def test_cli_dump_cadence(tmp_path):
    cfg = tmp_path / "kfp.cfg"
    cfg.write_text("model.c = 1.0\ngrid.nq = 16\ngrid.np = 32\ngrid.lq = 12.566\n"
                   "grid.pmax = 34.0\nsolver.t_final = 0.05\nsolver.record_every = 2\n"
                   "potential.kind = cosine\npotential.amplitude = 1.0\n"
                   "init.kind = shifted-maxwellian\ninit.p0 = 0.3\n"
                   "output.dump_every = 2\n")
    out = tmp_path / "dumps"
    assert run_cli("kfp", "--config", str(cfg), "--out", str(out)) == 0
    dumps = sorted(out.glob("density_*.txt"))
    assert (out / "density_0000.txt") in dumps
    assert len(dumps) >= 2


def test_console_script_installed(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("verify.fd_samples = 50\nverify.assembly_states = 1\n"
                   "grid.nq = 16\ngrid.np = 16\ngrid.lq = 16.0\ngrid.pmax = 34.0\n")
    proc = subprocess.run(["relgeneric", "verify", "--config", str(cfg),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
