import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgeneric.cli import main
from relgeneric.config import ConfigError, RunConfig, load_config, parse_config
from relgeneric.generic import DiagnosticsRecord
from relgeneric.errors import StabilityError
from relgeneric.grid import MAX_STEPS, LineGrid, PhaseGrid, time_steps
from relgeneric.io import (dump_density, load_density, read_timeseries_csv,
                           write_timeseries_csv)
from relgeneric.model import (CosinePotential, HarmonicPotential, ModelParams, Variant,
                              tail_exponent_momentum)
from relgeneric.rng import SplitMix64


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_heat_config_defaults():
    cfg = parse_config("", "heat")
    assert cfg.heat_grid == LineGrid(N=256, L=2.0)
    assert cfg.params.m == 1.0 and cfg.params.nu == 1.0
    assert cfg.seed == 1
    assert cfg.dt is None
    assert cfg.heat_init_kind == "gaussian"


def test_negative_theta_names_key():
    with pytest.raises(ConfigError, match=r"line 1: key 'model\.theta': must be > 0"):
        parse_config("model.theta = -1\n", "kfp")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"model\.tmperature"):
        parse_config("model.tmperature = 1.0\n", "heat")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("model.m = 1\nmodel.m = 2\n", "heat")


def test_experiment_mismatch_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = kfp\n", "heat")


def test_malformed_line_reports_lineno():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("model.m = 1\nnot a valid line\n", "heat")


def test_type_error_names_key():
    with pytest.raises(ConfigError, match=r"grid\.n"):
        parse_config("grid.n = many\n", "heat")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# heat run\n\nmodel.nu = 2.0  # diffusivity\n", "heat")
    assert cfg.params.nu == 2.0


def test_classical_c_token():
    cfg = parse_config("model.c = inf\n", "heat")
    assert math.isinf(cfg.params.c)
    cfg = parse_config("model.c = INFINITE\n", "heat")
    assert math.isinf(cfg.params.c)


KFP_SMALL = ("model.c = 1.0\ngrid.nq = 16\ngrid.np = 32\ngrid.lq = 12.566\n"
             "grid.pmax = 34.0\nsolver.t_final = 0.05\n")
HEAT_SMALL = "grid.n = 64\nsolver.t_final = 0.01\nmodel.c = 1.0\n"


# exit 2 (configuration error) or 1 (run failed), never a traceback
BAD_NUMBERS = {
    # a non-finite number is rejected for every key but model.c
    "kfp-t_final-inf": ("kfp", KFP_SMALL.replace("0.05", "inf"), 2),
    "heat-t_final-inf": ("heat", HEAT_SMALL.replace("0.01", "inf"), 2),
    "stiffness-inf": ("kfp", KFP_SMALL + "potential.kind = harmonic\n"
                      "potential.stiffness = inf\n", 2),
    "amplitude-inf": ("kfp", KFP_SMALL + "potential.kind = cosine\n"
                      "potential.amplitude = inf\n", 2),
    "p0-nan": ("kfp", KFP_SMALL + "init.p0 = nan\n", 2),
    "c-nan": ("kfp", KFP_SMALL.replace("1.0", "nan", 1), 2),
    "width-1e999": ("heat", HEAT_SMALL + "init.kind = bump\ninit.width = 1e999\n", 2,
                    "line 5: key 'init.width'"),
    "c_values-nan": ("limit-study", "limit.c_values = 10, nan\n", 2),
    # a finite number that leaves no finite momentum domain: theta makes
    # the auto-sized tail infinite
    "kfp-theta-1e308": ("kfp", KFP_SMALL.replace("34.0", "auto") + "model.theta = 1e308\n", 2),
    # ... or whose auto-sized trap edge underflows to 0
    "lq-auto-underflow": ("kfp", KFP_SMALL.replace("grid.lq = 12.566\n", "") + "potential.kind = "
                          "harmonic\npotential.stiffness = 1e300\nmodel.theta = 5e-324\n", 2,
                          "key 'grid.lq': 'auto' gives 0.0"),
    # finite numbers whose derived quantities break: a named solver error
    # (c = 1e308 needs a Pmax of about 8, but the rest energy m c^2 overflows)
    "kfp-c-1e308": ("kfp", KFP_SMALL.replace("1.0", "1e308", 1), 1, "model.c, model.m"),
    "kfp-gamma-1e308": ("kfp", KFP_SMALL + "model.gamma = 1e308\n", 1),
    "heat-nu-1e308": ("heat", HEAT_SMALL + "model.nu = 1e308\n", 1),
    "heat-length-1e-300": ("heat", HEAT_SMALL + "grid.length = 1e-300\n", 1),
    "kfp-t_final-1e308": ("kfp", KFP_SMALL.replace("0.05", "1e308"), 1),
    "period-1e-320": ("kfp", KFP_SMALL + "potential.kind = cosine\n"
                      "potential.period = 1e-320\n", 1),
    # an empty value is an error for every key, never its default
    "stiffness-empty": ("kfp", KFP_SMALL + "potential.kind = harmonic\n"
                        "potential.stiffness =\n", 2, "potential.stiffness", "line 8"),
    "amplitude-empty": ("kfp", KFP_SMALL + "potential.kind = cosine\n"
                        "potential.amplitude = \n", 2, "potential.amplitude", "line 8"),
    "dir-empty": ("heat", HEAT_SMALL + "output.dir =\n", 2, "output.dir", "line 4"),
    # a key the run does not read, named with its line
    "heat-theta": ("heat", HEAT_SMALL + "model.theta = 2\n", 2,
                   "line 4: key 'model.theta' is only valid for the kinetic solver"),
    "stationary-sigma_q": ("stationary", "model.c = 2.0\ninit.kind = shifted-maxwellian\n"
                           "init.sigma_q = 0.5\n", 2,
                           "line 3: key 'init.sigma_q' is only valid for init.kind = gaussian"),
}



# ---------------------------------------------------------------------------
# fuzzing the parser: a config either parses or ends in ConfigError

EXTREME = st.sampled_from([
    "nan", "NaN", "-nan", "inf", "-inf", "infinite", "Infinity", "1e999", "-1e999",
    "1e308", "1.7976931348623157e308", "1e-308", "5e-324", "1e-320", "0", "-0.0",
    "-1", "1e300", "1e-300", "1e200", "1e-200", "2", "0.5", "1_000", "0x10", "",
]) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
PLAIN = st.sampled_from(["1.0", "0.5", "2.0", "3.0", "12.0"])
FUZZ_KEYS = {
    "heat": ("model.c", "model.nu", "grid.length", "solver.dt", "solver.t_final",
             "init.sigma", "init.width"),
    "kfp": ("model.c", "model.m", "model.theta", "model.gamma", "grid.lq",
            "grid.pmax", "solver.dt", "solver.t_final", "init.p0", "init.q0",
            "init.sigma_q", "init.sigma_p", "potential.stiffness"),
    "stationary": ("model.c", "model.m", "model.theta", "model.gamma", "grid.pmax",
                   "potential.stiffness", "stationary.l1_target", "solver.t_final"),
    "limit-study": ("model.c", "model.m", "model.theta", "model.nu", "limit.c_values",
                    "solver.t_final", "grid.length", "grid.pmax"),
}
FIXED = {
    "heat": "grid.n = 16\n",
    "kfp": "grid.nq = 8\ngrid.np = 8\npotential.kind = harmonic\ninit.kind = gaussian\n",
    "stationary": "grid.nq = 8\ngrid.np = 8\npotential.kind = harmonic\n",
    "limit-study": "",
}


@st.composite
def fuzzed_configs(draw):
    experiment = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS[experiment]), unique=True, max_size=6))
    lines = [FIXED[experiment]]
    if experiment == "limit-study":
        kind = draw(st.sampled_from(["heat", "kfp"]))
        lines.append(f"limit.kind = {kind}\n")
        other = ({"model.c", "model.m", "model.theta", "grid.pmax"} if kind == "heat"
                 else {"model.nu", "grid.length"})
        keys = [k for k in keys if k not in other]
    for key in keys:
        if key == "limit.c_values":
            value = ", ".join(draw(st.lists(EXTREME | PLAIN, min_size=1, max_size=3)))
        else:
            value = draw(EXTREME | PLAIN)
        lines.append(f"{key} = {value}\n")
    if experiment in ("kfp", "stationary") and draw(st.booleans()):
        lines.append("model.c = inf\n" if "model.c" not in keys else "model.variant = dmr\n")
    return experiment, "".join(lines)


@settings(max_examples=400, deadline=None)
@given(case=fuzzed_configs())
def test_fuzzed_config_parses_or_raises_config_error(tmp_path_factory, case):
    # NaN, +-inf, overflowing literals, and extreme c, theta and m c^2 / theta:
    # no solver runs, and the parser's only failure is ConfigError
    experiment, text = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_config(str(path), experiment)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    numbers = [cfg.t_final, cfg.params.m, cfg.params.theta, cfg.params.gamma, cfg.params.nu]
    numbers += [] if cfg.dt is None else [cfg.dt]
    grid = cfg.heat_grid or cfg.phase_grid
    numbers += [grid.L] if cfg.heat_grid else [grid.Lq, grid.Pmax]
    assert all(math.isfinite(x) and x > 0 for x in numbers), text
    assert cfg.params.c > 0 and not math.isnan(cfg.params.c), text


@pytest.mark.parametrize("case", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_cli_bad_numbers_end_in_named_errors(tmp_path, capsys, case):
    experiment, text, code, *names = case     # names: text the message must contain
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with np.errstate(all="ignore"):
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == code
    prefix = "configuration error:" if code == 2 else "run failed:"
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert all(name in err for name in names)


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"model.c = 1\xff\n")
    assert main(["heat", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot read config file {path}: ")


def test_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    # under a regular file (by --out and by output.dir), and a device file
    (blocker := tmp_path / "file").write_text("")
    (path := tmp_path / "heat.cfg").write_text(HEAT_SMALL)
    (in_cfg := tmp_path / "dir.cfg").write_text(HEAT_SMALL + f"output.dir = {blocker}/o\n")
    for cfg, out in ((path, blocker / "o"), (in_cfg, None), (path, "/dev/null")):
        assert main(["heat", "--config", str(cfg)] + (["--out", str(out)] if out else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory "
                              f"{out or blocker / 'o'}: "), err


def test_failed_output_write_is_a_run_failure(tmp_path, capsys):
    (path := tmp_path / "heat.cfg").write_text(HEAT_SMALL)
    (tmp_path / "o" / "timeseries.csv").mkdir(parents=True)
    assert main(["heat", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        f"run failed: failed to write time series to {tmp_path / 'o' / 'timeseries.csv'}: ")


def test_step_count_bounded():
    # an absurd but finite count is refused before any step is taken
    assert time_steps(1.0, 1.0 / MAX_STEPS) == (MAX_STEPS, 1.0 / MAX_STEPS)
    for t_final, dt in ((1.0, 0.99 / MAX_STEPS), (0.05, 3.5e-302)):
        with pytest.raises(StabilityError, match="more than the limit"):
            time_steps(t_final, dt)


def test_tail_momentum_finite_for_huge_c():
    # the relativistic tail momentum tends to the classical one as c grows;
    # neither squaring m c nor cancellation may lose it
    classical = tail_exponent_momentum(ModelParams(m=1.0, c=math.inf))
    for c in (1e8, 1e9, 1e100, 1e154, 1e155, 1e308):
        assert tail_exponent_momentum(ModelParams(m=1.0, c=c)) == pytest.approx(
            classical, rel=1e-7)


def test_kfp_defaults_satisfy_tail_rule():
    cfg = parse_config("model.c = 1.0\n", "kfp")
    need = tail_exponent_momentum(cfg.params)
    assert cfg.phase_grid.Pmax >= need
    assert cfg.variant is Variant.DH


def test_kfp_explicit_small_pmax_rejected():
    text = "model.c = 1.0\ngrid.pmax = 5.0\n"
    with pytest.raises(ConfigError, match=r"line 2: key 'grid\.pmax'"):
        parse_config(text, "kfp")


def test_grid_keys_name_their_line():
    for line, message in (("grid.nq = 7", "must be an even integer >= 8"),
                          ("grid.np = 4", "must be an even integer >= 8"),
                          ("grid.lq = 0", "must be > 0 or 'auto'"),
                          ("grid.pmax = -1", "must be > 0 or 'auto'")):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"^line 2: key '{key}': {message}$"):
            parse_config(f"model.c = 2.0\n{line}\n", "stationary")
    for line, message in (("grid.n = 7", "must be an integer >= 8"),
                          ("grid.length = 0", "must be > 0")):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"^line 1: key '{key}': {message}$"):
            parse_config(f"{line}\n", "heat")


def test_kfp_variant_consistency(tmp_path, capsys):
    # model.c = inf is the one classical switch: dh and dmr take every c, and
    # 'classical' is no variant
    for text in ("model.variant = dh\nmodel.c = inf\n", "model.variant = dmr\nmodel.c = inf\n",
                 "grid.nq = 16\nmodel.c = inf\n"):
        assert parse_config(text, "stationary").params.classical
    path = tmp_path / "classical.cfg"
    path.write_text("model.c = inf\nmodel.variant = classical\n")
    assert main(["kfp", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "line 2: key 'model.variant': expected one of ('dh', 'dmr')" in capsys.readouterr().err


def test_heat_keys_rejected_for_kfp():
    with pytest.raises(ConfigError, match=r"grid\.n"):
        parse_config("grid.n = 128\n", "kfp")


def test_potential_key_consistency():
    with pytest.raises(ConfigError, match=r"line 2: key 'potential\.stiffness'"):
        parse_config("potential.kind = zero\npotential.stiffness = 1\n", "kfp")
    with pytest.raises(ConfigError, match=r"line 2: key 'potential\.amplitude'"):
        parse_config("potential.kind = harmonic\npotential.amplitude = 1\n", "kfp")
    cfg = parse_config("potential.kind = harmonic\npotential.stiffness = 0.5\n", "kfp")
    assert isinstance(cfg.potential, HarmonicPotential)
    assert cfg.potential.stiffness == 0.5


def test_cosine_period_defaults_to_domain():
    cfg = parse_config("potential.kind = cosine\ngrid.lq = 10.0\nmodel.c = 2.0\n", "kfp")
    assert isinstance(cfg.potential, CosinePotential)
    assert cfg.potential.period == 10.0


def test_harmonic_auto_domain_covers_tail():
    cfg = parse_config("potential.kind = harmonic\npotential.stiffness = 1.0\n"
                       "model.c = 2.0\n", "kfp")
    edge = cfg.phase_grid.Lq / 2.0
    a = cfg.params.theta * (-math.log(1e-14) + 1.0)
    assert 0.5 * cfg.potential.stiffness * edge**2 >= a


def test_limit_study_config():
    text = ("limit.kind = kfp\nlimit.c_values = 10, 100, 1000\nmodel.c = 1000\n"
            "grid.pmax = 8.8\npotential.kind = harmonic\npotential.stiffness = 1.0\n")
    cfg = parse_config(text, "limit-study")
    assert cfg.limit_kind == "kfp"
    assert cfg.limit_cs == (10.0, 100.0, 1000.0)
    with pytest.raises(ConfigError, match=r"limit\.c_values"):
        parse_config("limit.c_values = 1000, 10\n", "limit-study")
    with pytest.raises(ConfigError, match=r"line 1: key 'limit\.c_values'"):
        parse_config("limit.c_values = 10, 10\n", "limit-study")
    with pytest.raises(ConfigError, match=r"grid\.nq"):
        parse_config("limit.kind = heat\ngrid.nq = 32\n", "limit-study")
    with pytest.raises(ConfigError, match=r"line 7: key 'model\.variant'"):
        parse_config(text + "model.variant = classical\n", "limit-study")


# the runs of the scope test: an experiment, or a limit study with its
# limit.kind, each with the lines it needs to parse
RUNS = {"heat": ("heat", ""), "kfp": ("kfp", "model.c = 2.0\n"),
        "stationary": ("stationary", "model.c = 2.0\n"), "verify": ("verify", ""),
        "limit-heat": ("limit-study", ""), "limit-kfp": ("limit-study", "limit.kind = kfp\n")}
HEAT_RUNS = {"heat", "limit-heat"}
KINETIC_RUNS = {"kfp", "stationary", "verify", "limit-kfp"}
STEPPED_RUNS = set(RUNS) - {"verify"}
RECORDED_RUNS = {"heat", "kfp", "stationary"}
# a valid line of each key and the runs that take it
KEY_RUNS = {
    "seed = 3": {"verify"}, "output.dir = o": set(RUNS), "output.dump_every = 2": RECORDED_RUNS,
    "model.c = 2.0": set(RUNS) - {"limit-heat"}, "model.nu = 2.0": HEAT_RUNS,
    **{line: KINETIC_RUNS for line in ("model.m = 2.0", "model.gamma = 2.0",
                                       "model.theta = 2.0", "potential.kind = zero")},
    "model.variant = dmr": KINETIC_RUNS - {"verify"},
    "model.d = 1": set(),          # retired: d > 1 has no solver yet
    "grid.n = 64": HEAT_RUNS, "grid.length = 3.0": HEAT_RUNS,
    "grid.nq = 32": KINETIC_RUNS, "grid.np = 32": KINETIC_RUNS,
    "grid.lq = 10.0": KINETIC_RUNS, "grid.pmax = 40.0": KINETIC_RUNS,
    "init.kind = uniform": STEPPED_RUNS,
    "solver.dt = 1e-3": STEPPED_RUNS, "solver.t_final = 0.5": STEPPED_RUNS,
    "solver.record_every = 5": RECORDED_RUNS,
    "stationary.l1_target = 1e-2": {"stationary"},
    "limit.kind = heat": {"limit-heat"}, "limit.c_values = 10, 100": {"limit-heat", "limit-kfp"},
    **{f"verify.{name} = {value}": {"verify"} for name, value in (
        ("fd_samples", 5), ("gradient_checks", 2), ("assembly_states", 2))},
}
# a valid line of each key taken only under some values of a kind key:
# (the runs that take it, the kind key, those values)
KIND_KEYS = {
    **{line: (KINETIC_RUNS, "potential.kind", own) for line, own in (
        ("potential.stiffness = 0.5", {"harmonic"}), ("potential.amplitude = 0.5", {"cosine"}),
        ("potential.period = 3.0", {"cosine"}))},
    "init.sigma = 0.2": (HEAT_RUNS, "init.kind", {"gaussian"}),
    "init.width = 0.5": (HEAT_RUNS, "init.kind", {"bump"}),
    "init.p0 = 0.5": (STEPPED_RUNS - HEAT_RUNS, "init.kind", {"gaussian", "shifted-maxwellian"}),
    **{f"init.{name} = 2.0": (STEPPED_RUNS - HEAT_RUNS, "init.kind", {"gaussian"})
       for name in ("q0", "sigma_q", "sigma_p")},
}
# each kind key's values, in the runs that take it
KINDS = {"potential.kind": {run: ("zero", "harmonic", "cosine") for run in KINETIC_RUNS},
         "init.kind": {**{run: ("uniform", "gaussian", "bump") for run in HEAT_RUNS},
                       **{run: ("uniform", "gaussian", "shifted-maxwellian")
                          for run in STEPPED_RUNS - HEAT_RUNS}}}


def test_each_key_parses_only_in_the_runs_that_take_it():
    cases = [(line, run, run in runs) for line, runs in KEY_RUNS.items() for run in RUNS]
    # a kind-conditional key in each run, under each value of its kind key
    # that the run takes (alone where the run takes no such kind key)
    cases += [(f"{kind_key} = {kind}\n{line}" if kind else line, run,
               run in runs and kind in own)
              for line, (runs, kind_key, own) in KIND_KEYS.items() for run in RUNS
              for kind in KINDS[kind_key].get(run, (None,))]
    for lines, run, taken in cases:
        experiment, prefix = RUNS[run]
        key = lines.splitlines()[-1].split("=")[0].strip()
        if key + " =" in prefix:
            continue
        try:
            parse_config(prefix + lines + "\n", experiment)
        except ConfigError as exc:
            assert not taken and f"'{key}'" in str(exc), (run, lines, str(exc))
        else:
            assert taken, f"{run} took {lines!r}"


def test_seed_range(tmp_path, capsys):
    # seeds are u64: 2**64 and above would be masked to another seed's suite
    assert parse_config(f"seed = {2**64 - 1}\n", "verify").seed == 2**64 - 1
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ConfigError, match=r"line 1: key 'seed'"):
            parse_config(f"seed = {seed}\n", "verify")
    path = tmp_path / "verify.cfg"
    path.write_text("")
    for seed in ("-1", str(2**64 + 1), "one"):
        argv = ["verify", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", seed]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: --seed:")
    # only the verify suite draws random numbers; any other run refuses a seed
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_SMALL)
    argv = ["heat", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "configuration error: --seed: key 'seed' is not valid for experiment 'heat'\n")


def test_stationary_config():
    text = ("model.c = 2.0\nstationary.l1_target = 5e-3\n"
            "potential.kind = cosine\npotential.amplitude = 1.0\n")
    cfg = parse_config(text, "stationary")
    assert cfg.l1_target == 5e-3
    with pytest.raises(ConfigError, match="l1_target"):
        parse_config("model.c = 2.0\nstationary.l1_target = -1\n", "stationary")


def test_verify_options():
    cfg = parse_config("verify.fd_samples = 50\n", "verify")
    assert cfg.verify.fd_samples == 50


def test_verify_grid_is_bounded_by_its_dense_operator_checks(tmp_path, capsys):
    # verify defaults to the largest grid it takes, and names one above it
    cfg = parse_config("", "verify")
    assert (cfg.phase_grid.Nq, cfg.phase_grid.Np) == (32, 32)
    assert parse_config("grid.nq = 16\ngrid.np = 64\n", "verify").phase_grid.Np == 64
    assert parse_config("model.c = 2.0\n", "kfp").phase_grid.Nq == 64
    (path := tmp_path / "verify.cfg").write_text("grid.np = 34\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: key 'grid.nq': 32 x 34 (grid.np) cells, more than the 1024 "
        "that verify's dense operator checks take\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["verify.bracket_pairs", "verify.psd_samples"])
def test_retired_verify_sizes_are_unknown_keys(tmp_path, capsys, key):
    # the operator checks read whole matrices and sample nothing
    (path := tmp_path / "verify.cfg").write_text(f"{key} = 5\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: line 1: unknown key '{key}' for experiment 'verify'\n")


# ---------------------------------------------------------------------------
# CSV round trips

def _records(n=3, rel=True):
    rng = SplitMix64(5)
    out = []
    for i in range(n):
        out.append(DiagnosticsRecord(
            t=float(i) * 0.1, E=rng.uniform(-10, 10), S=rng.uniform(-10, 10),
            mass=1.0 + rng.uniform(-1e-12, 1e-12), dSdt=rng.uniform(-1, 1),
            degL=rng.uniform(0, 1e-3), degM=0.0,
            relEnt=rng.uniform(0, 2) if rel else None, e=rng.uniform(-1, 1)))
    return out


def test_csv_roundtrip_bitwise(tmp_path):
    path = tmp_path / "ts.csv"
    records = _records()
    write_timeseries_csv(records, path)
    back = read_timeseries_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        for field in ("t", "E", "S", "mass", "dSdt", "degL", "degM", "relEnt", "e"):
            assert getattr(a, field) == getattr(b, field)


def test_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    write_timeseries_csv(_records(1), path)
    assert len(path.read_text().splitlines()) == 2


def test_csv_empty_relent_for_heat(tmp_path):
    path = tmp_path / "heat.csv"
    write_timeseries_csv(_records(rel=False), path)
    row = path.read_text().splitlines()[1]
    assert row.split(",")[7] == ""
    assert read_timeseries_csv(path)[0].relEnt is None


def test_csv_rejects_empty_and_nonmonotone(tmp_path):
    with pytest.raises(ValueError):
        write_timeseries_csv([], tmp_path / "x.csv")
    records = _records(3)
    records[2].t = records[1].t
    with pytest.raises(ValueError):
        write_timeseries_csv(records, tmp_path / "y.csv")


def test_csv_io_error_names_path():
    with pytest.raises(OSError, match="no/such/dir"):
        write_timeseries_csv(_records(1), "no/such/dir/ts.csv")


# ---------------------------------------------------------------------------
# density dumps

def test_kfp_dump_roundtrip(tmp_path):
    grid = PhaseGrid(Nq=8, Np=8, Lq=3.0, Pmax=2.0)
    rng = SplitMix64(6)
    rho = rng.uniforms(64).reshape(8, 8)
    path = tmp_path / "density.txt"
    dump_density("kfp", grid, rho, 0.25, path)
    kind, meta, back = load_density(path)
    assert kind == "kfp"
    assert meta["Nq"] == 8 and meta["Lq"] == 3.0 and meta["t"] == 0.25
    assert np.array_equal(back, rho)


def test_heat_dump_roundtrip(tmp_path):
    grid = LineGrid(N=8, L=2.0)
    rho = SplitMix64(7).uniforms(8)
    path = tmp_path / "density.txt"
    dump_density("heat", grid, rho, 1.5, path)
    kind, meta, back = load_density(path)
    assert kind == "heat"
    assert len(path.read_text().splitlines()) == 3 + 8   # 3 header lines, 8 rows
    assert np.array_equal(back, rho)


def test_dump_mass_recoverable(tmp_path):
    grid = LineGrid(N=32, L=2.0)
    rho = SplitMix64(8).uniforms(32)
    rho /= np.sum(rho) * grid.h
    path = tmp_path / "d.txt"
    dump_density("heat", grid, rho, 0.0, path)
    _, meta, back = load_density(path)
    assert abs(float(np.sum(back)) * (meta["Lq"] / meta["Nq"]) - 1.0) <= 1e-15


def _per_cell_dump_text(kind, grid, rho, t):
    """Reference: the dump text written by formatting every cell on its own."""
    def fmt(x):
        return format(float(x), ".17g")
    lines = [f"# kind={kind}"]
    if kind == "kfp":
        lines.append(f"# Nq={grid.Nq} Np={grid.Np} Lq={fmt(grid.Lq)} "
                     f"Pmax={fmt(grid.Pmax)} t={fmt(t)}")
        lines.append("qIndex,pIndex,q,p,rho")
        for i in range(grid.Nq):
            for j in range(grid.Np):
                lines.append(f"{i},{j},{fmt(grid.q[i])},{fmt(grid.p[j])},{fmt(rho[i, j])}")
    else:
        lines.append(f"# Nq={grid.N} Lq={fmt(grid.L)} t={fmt(t)}")
        lines.append("qIndex,q,rho")
        for i in range(grid.N):
            lines.append(f"{i},{fmt(grid.x[i])},{fmt(rho[i])}")
    return "\n".join(lines) + "\n"


def test_dump_bytes_match_per_cell_formatter(tmp_path):
    special = [0.0, -0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf, 1.0 / 3.0]
    # two grids of each kind with equal shapes but different coordinates, and
    # the first dumped again last: rows cached under a wrong key would show;
    # two more phase grids take the row templates to 3-digit indices
    cases = [("kfp", PhaseGrid(Nq=8, Np=10, Lq=3.0, Pmax=2.0)),
             ("kfp", PhaseGrid(Nq=8, Np=10, Lq=5.0, Pmax=2.5)),
             ("heat", LineGrid(N=12, L=2.0)),
             ("heat", LineGrid(N=12, L=3.0))]
    wide = [("kfp", PhaseGrid(Nq=102, Np=8, Lq=3.0, Pmax=2.0)),
            ("kfp", PhaseGrid(Nq=8, Np=130, Lq=3.0, Pmax=2.0))]
    rng = SplitMix64(9)
    for n, (kind, grid) in enumerate(cases + cases[:1] + cases[2:3] + wide):
        shape = grid.shape if kind == "kfp" else (grid.N,)
        rho = rng.uniforms(int(np.prod(shape))).reshape(shape)
        rho.flat[n:n + len(special)] = special
        path = tmp_path / f"density_{n}.txt"
        dump_density(kind, grid, rho, 0.1 * n, path)
        assert path.read_bytes() == _per_cell_dump_text(kind, grid, rho, 0.1 * n).encode()
        back_kind, _, back = load_density(path)
        assert back_kind == kind
        assert np.array_equal(back.view(np.uint64), rho.view(np.uint64))


@pytest.mark.parametrize("cut", ["truncated", "duplicated"])
def test_load_density_takes_each_cell_exactly_once(tmp_path, cut):
    # a dump missing its last 20 rows, or with its last row replaced by a copy
    # of the one before, is an error naming the file, not uninitialised cells
    grid = PhaseGrid(Nq=8, Np=8, Lq=3.0, Pmax=2.0)
    path = tmp_path / "density.txt"
    dump_density("kfp", grid, np.arange(64.0).reshape(8, 8) / 64, 0.0, path)
    lines = path.read_text().splitlines()
    lines = lines[:-20] if cut == "truncated" else lines[:-1] + lines[-2:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"density\.txt: .* exactly once"):
        load_density(path)


def test_dump_rejects_mismatched_density(tmp_path):
    grid = PhaseGrid(Nq=8, Np=10, Lq=3.0, Pmax=2.0)
    for rho in (np.ones((10, 8)), np.ones((8, 12)), np.ones(80)):
        with pytest.raises(ValueError, match="does not fit"):
            dump_density("kfp", grid, rho, 0.0, tmp_path / "d.txt")


def test_heat_rejects_potential():
    with pytest.raises(ConfigError, match=r"potential\.kind"):
        parse_config("potential.kind = harmonic\npotential.stiffness = 1\n", "heat")
    with pytest.raises(ConfigError, match=r"potential\.kind"):
        parse_config("limit.kind = heat\npotential.kind = cosine\n"
                     "potential.amplitude = 1\n", "limit-study")


def test_grid_validation():
    with pytest.raises(ValueError, match="even"):
        PhaseGrid(Nq=31, Np=32, Lq=1.0, Pmax=1.0)
    with pytest.raises(ValueError, match=">= 8"):
        PhaseGrid(Nq=4, Np=32, Lq=1.0, Pmax=1.0)
    with pytest.raises(ValueError):
        PhaseGrid(Nq=32, Np=32, Lq=-1.0, Pmax=1.0)
    with pytest.raises(ValueError):
        LineGrid(N=4, L=1.0)
    with pytest.raises(ValueError):
        LineGrid(N=16, L=0.0)
