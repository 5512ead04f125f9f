"""Strict flat-key configuration parsing.

Documents are plain text, one ``section.key = value`` per line, ``#`` starts
a comment.  Unknown keys, duplicate keys, type mismatches, and physics
constraint violations are all hard errors naming the offending key, so a
typo can never silently change an experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .grid import LineGrid, PhaseGrid
from .kfp import InitSpec
from .model import (INFINITE, CosinePotential, HarmonicPotential, ModelParams,
                    Potential, Variant, ZeroPotential, check_variant)

EXPERIMENTS = ("heat", "kfp", "verify", "stationary", "limit-study")

# margin on top of -ln(TAIL_CUTOFF) used when auto-sizing domains
_TAIL_EXPONENT = -math.log(1e-14) + 1.0


class ConfigError(Exception):
    pass


@dataclass
class VerifyOptions:
    bracket_pairs: int = 200
    psd_samples: int = 10000
    fd_samples: int = 10000
    gradient_checks: int = 10
    assembly_states: int = 20
    refinement: bool = True
    jacobi: bool = True


@dataclass
class RunConfig:
    experiment: str
    seed: int = 1
    out_dir: str = "out"
    dump_every: int = 0
    params: ModelParams = field(default_factory=ModelParams)
    variant: Variant = Variant.DH
    potential: Potential = field(default_factory=ZeroPotential)
    heat_grid: LineGrid | None = None
    phase_grid: PhaseGrid | None = None
    dt: float | None = None          # None: the experiment's auto step
    t_final: float = 1.0
    record_every: int = 10
    init: InitSpec = field(default_factory=InitSpec)
    heat_init_kind: str = "gaussian"
    heat_sigma: float | None = None
    heat_width: float | None = None
    l1_target: float = 1e-3
    limit_kind: str = "heat"
    limit_cs: tuple = (10.0, 100.0, 1000.0)
    verify: VerifyOptions = field(default_factory=VerifyOptions)


def _parse_lines(text: str) -> dict[str, tuple[int, str]]:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)
    return entries


def _want_float(key, lineno, value):
    """A finite number; only ``model.c`` also takes inf (classical mode)."""
    if value.lower() in ("inf", "infinite"):
        number = INFINITE
    else:
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: key '{key}': expected a number, "
                              f"got {value!r}") from None
    if math.isnan(number) or (math.isinf(number) and key != "model.c"):
        raise ConfigError(f"line {lineno}: key '{key}': expected a finite number, got {value!r}")
    return number


def _want_int(key, lineno, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: key '{key}': expected an integer, got {value!r}") from None


def _want_bool(key, lineno, value):
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"line {lineno}: key '{key}': expected true/false, got {value!r}")


def _want_choice(key, lineno, value, choices):
    if value not in choices:
        raise ConfigError(f"line {lineno}: key '{key}': expected one of {choices}, got {value!r}")
    return value


_COMMON_KEYS = {
    "experiment", "seed", "output.dir", "output.dump_every",
    "model.m", "model.c", "model.gamma", "model.theta", "model.nu", "model.d",
    "model.variant",
    "potential.kind", "potential.stiffness", "potential.amplitude", "potential.period",
}
_HEAT_KEYS = {"grid.n", "grid.length", "solver.dt", "solver.t_final",
              "solver.record_every", "init.kind", "init.sigma", "init.width"}
_KFP_KEYS = {"grid.nq", "grid.np", "grid.lq", "grid.pmax", "solver.dt",
             "solver.t_final", "solver.record_every", "init.kind", "init.p0",
             "init.q0", "init.sigma_q", "init.sigma_p"}
_ALLOWED = {
    "heat": _COMMON_KEYS | _HEAT_KEYS,
    "kfp": _COMMON_KEYS | _KFP_KEYS,
    "stationary": _COMMON_KEYS | _KFP_KEYS | {"stationary.l1_target"},
    "verify": _COMMON_KEYS | {"grid.nq", "grid.np", "grid.lq", "grid.pmax",
                              "verify.bracket_pairs", "verify.psd_samples",
                              "verify.fd_samples", "verify.gradient_checks",
                              "verify.assembly_states", "verify.refinement",
                              "verify.jacobi"},
    "limit-study": _COMMON_KEYS | _HEAT_KEYS | _KFP_KEYS
                   | {"limit.kind", "limit.c_values"},
}


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


def _auto_lq(params: ModelParams, potential: Potential) -> float:
    if isinstance(potential, HarmonicPotential) and potential.stiffness > 0:
        a = params.theta * _TAIL_EXPONENT
        return 2.0 * math.sqrt(2.0 * a / potential.stiffness) * 1.01
    return 4.0 * math.pi


def parse_config(text: str, experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    entries = _parse_lines(text)
    allowed = _ALLOWED[experiment]
    for key, (lineno, _) in entries.items():
        if key not in allowed:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' for experiment '{experiment}'")

    def take(key, default=None):
        return entries.pop(key, (0, default))

    def has(key):
        return key in entries

    # experiment tag (optional in the file, must agree with the subcommand)
    lineno, value = take("experiment")
    if value is not None and value != experiment:
        raise ConfigError(f"line {lineno}: key 'experiment': file says {value!r} "
                          f"but the command line selected '{experiment}'")

    cfg = RunConfig(experiment=experiment)

    lineno, value = take("seed")
    if value is not None:
        cfg.seed = _want_int("seed", lineno, value)
        if cfg.seed < 0:
            raise ConfigError(f"line {lineno}: key 'seed': must be >= 0")
    lineno, value = take("output.dir")
    if value is not None:
        cfg.out_dir = value
    lineno, value = take("output.dump_every")
    if value is not None:
        cfg.dump_every = _want_int("output.dump_every", lineno, value)
        if cfg.dump_every < 0:
            raise ConfigError(f"line {lineno}: key 'output.dump_every': must be >= 0")

    # --- model block
    model_values = {}
    for name in ("m", "c", "gamma", "theta", "nu"):
        lineno, value = take(f"model.{name}")
        if value is not None:
            v = _want_float(f"model.{name}", lineno, value)
            if not v > 0:
                hint = " (use 'inf' for classical mode)" if name == "c" else ""
                raise ConfigError(f"line {lineno}: key 'model.{name}': must be > 0{hint}")
            model_values[name] = v
    lineno, value = take("model.d")
    if value is not None:
        dval = _want_int("model.d", lineno, value)
        if dval != 1:
            raise ConfigError(f"line {lineno}: key 'model.d': solvers support d = 1 only")
        model_values["d"] = dval
    cfg.params = ModelParams(**model_values)

    lineno, value = take("model.variant")
    if value is not None:
        _want_choice("model.variant", lineno, value, ("dh", "dmr", "classical"))
        cfg.variant = Variant(value)
    if experiment in ("kfp", "stationary"):
        try:
            check_variant(cfg.variant, cfg.params)
        except ValueError as exc:
            raise ConfigError(f"key 'model.variant': {exc}; set model.c = inf for the "
                              "classical variant or a finite model.c for dh and dmr") from None

    # --- potential block
    lineno, value = take("potential.kind", "zero")
    kind = _want_choice("potential.kind", lineno, value, ("zero", "harmonic", "cosine"))
    lineno_s, stiffness = take("potential.stiffness")
    lineno_a, amplitude = take("potential.amplitude")
    lineno_p, period = take("potential.period")
    if kind == "zero":
        for key, v in (("potential.stiffness", stiffness), ("potential.amplitude", amplitude),
                       ("potential.period", period)):
            if v is not None:
                raise ConfigError(f"key '{key}' is only valid for the matching potential.kind")
        cfg.potential = ZeroPotential()
    elif kind == "harmonic":
        if amplitude is not None or period is not None:
            raise ConfigError("keys 'potential.amplitude'/'potential.period' are not "
                              "valid for potential.kind = harmonic")
        k = _want_float("potential.stiffness", lineno_s, stiffness or "1.0")
        if k < 0:
            raise ConfigError(f"line {lineno_s}: key 'potential.stiffness': must be >= 0")
        cfg.potential = HarmonicPotential(stiffness=k)
    else:
        if stiffness is not None:
            raise ConfigError("key 'potential.stiffness' is not valid for potential.kind = cosine")
        a = _want_float("potential.amplitude", lineno_a, amplitude or "1.0")
        if a < 0:
            raise ConfigError(f"line {lineno_a}: key 'potential.amplitude': must be >= 0")
        cfg.potential = ("pending-cosine", a, lineno_p, period)  # resolved once Lq is known

    # --- grids (limit.kind decides which solver a limit study drives)
    if experiment == "limit-study":
        lineno, value = take("limit.kind")
        cfg.limit_kind = _want_choice("limit.kind", lineno, value or "heat", ("heat", "kfp"))
    need_heat = experiment == "heat" or \
        (experiment == "limit-study" and cfg.limit_kind == "heat")
    need_phase = experiment in ("kfp", "stationary", "verify") or \
        (experiment == "limit-study" and cfg.limit_kind == "kfp")
    if not need_heat:
        for key in ("grid.n", "grid.length"):
            if has(key):
                raise ConfigError(f"key '{key}' is only valid for the heat solver")
    if not need_phase:
        for key in ("grid.nq", "grid.np", "grid.lq", "grid.pmax"):
            if has(key):
                raise ConfigError(f"key '{key}' is only valid for the kinetic solver")
        if kind != "zero":
            raise ConfigError("key 'potential.kind': the heat solver carries no "
                              "external potential")

    if need_heat:
        lineno, value = take("grid.n")
        n = _want_int("grid.n", lineno, value) if value is not None else 256
        lineno, value = take("grid.length")
        length = _want_float("grid.length", lineno, value) if value is not None else 2.0
        try:
            cfg.heat_grid = LineGrid(N=n, L=length)
        except ValueError as exc:
            raise ConfigError(f"grid.n/grid.length: {exc}") from None

    if need_phase:
        lineno, value = take("grid.nq")
        nq = _want_int("grid.nq", lineno, value) if value is not None else 64
        lineno, value = take("grid.np")
        npp = _want_int("grid.np", lineno, value) if value is not None else 64
        lineno, value = take("grid.lq")
        if value is None or value == "auto":
            lq = None
        else:
            lq = _want_float("grid.lq", lineno, value)
        lineno, value = take("grid.pmax")
        if value is None or value == "auto":
            pmax = tail_exponent_momentum(cfg.params) * 1.01
        else:
            pmax = _want_float("grid.pmax", lineno, value)

        if isinstance(cfg.potential, tuple):      # pending cosine
            _, a, lineno_p, period = cfg.potential
            if lq is None:
                lq = 4.0 * math.pi
            per = _want_float("potential.period", lineno_p, period) if period is not None else lq
            if per <= 0:
                raise ConfigError(f"line {lineno_p}: key 'potential.period': must be > 0")
            cfg.potential = CosinePotential(amplitude=a, period=per)
        elif lq is None:
            lq = _auto_lq(cfg.params, cfg.potential)
        for key, extent in (("grid.lq", lq), ("grid.pmax", pmax)):
            if not math.isfinite(extent):      # 'auto' with extreme theta, m or stiffness
                raise ConfigError(f"key '{key}': 'auto' gives {extent!r} for these "
                                  "parameters; set it explicitly")
        try:
            cfg.phase_grid = PhaseGrid(Nq=nq, Np=npp, Lq=lq, Pmax=pmax)
        except ValueError as exc:
            raise ConfigError(f"grid.nq/np/lq/pmax: {exc}") from None

    # --- solver block
    lineno, value = take("solver.dt")
    if value is not None and value != "auto":
        cfg.dt = _want_float("solver.dt", lineno, value)
        if not cfg.dt > 0:
            raise ConfigError(f"line {lineno}: key 'solver.dt': must be > 0 or 'auto'")
    lineno, value = take("solver.t_final")
    if value is not None:
        cfg.t_final = _want_float("solver.t_final", lineno, value)
        if not cfg.t_final > 0:
            raise ConfigError(f"line {lineno}: key 'solver.t_final': must be > 0")
    lineno, value = take("solver.record_every")
    if value is not None:
        cfg.record_every = _want_int("solver.record_every", lineno, value)
        if cfg.record_every < 1:
            raise ConfigError(f"line {lineno}: key 'solver.record_every': must be >= 1")

    # --- init block
    if experiment in ("kfp", "stationary") or \
            (experiment == "limit-study" and cfg.limit_kind == "kfp"):
        lineno, value = take("init.kind")
        kind = value if value is not None else "shifted-maxwellian"
        _want_choice("init.kind", lineno, kind, ("shifted-maxwellian", "gaussian", "uniform"))
        numbers = {}
        for name, default in (("p0", 0.0), ("q0", 0.0), ("sigma_q", 1.0), ("sigma_p", 1.0)):
            lineno, value = take(f"init.{name}")
            numbers[name] = _want_float(f"init.{name}", lineno, value) \
                if value is not None else default
        if kind == "gaussian" and (numbers["sigma_q"] <= 0 or numbers["sigma_p"] <= 0):
            raise ConfigError("key 'init.sigma_q'/'init.sigma_p': must be > 0")
        cfg.init = InitSpec(kind=kind, **numbers)
        if experiment == "limit-study":
            for key in ("init.sigma", "init.width"):
                if has(key):
                    raise ConfigError(f"key '{key}' is only valid for limit.kind = heat")
    elif experiment in ("heat", "limit-study"):
        lineno, value = take("init.kind")
        kind = value if value is not None else "gaussian"
        _want_choice("init.kind", lineno, kind, ("uniform", "gaussian", "bump"))
        cfg.heat_init_kind = kind
        lineno, value = take("init.sigma")
        cfg.heat_sigma = _want_float("init.sigma", lineno, value) if value is not None else None
        lineno, value = take("init.width")
        cfg.heat_width = _want_float("init.width", lineno, value) if value is not None else None
        if cfg.heat_sigma is not None and cfg.heat_sigma <= 0:
            raise ConfigError("key 'init.sigma': must be > 0")
        if cfg.heat_width is not None and cfg.heat_width <= 0:
            raise ConfigError("key 'init.width': must be > 0")
        for key in ("init.p0", "init.q0", "init.sigma_q", "init.sigma_p"):
            if has(key):
                raise ConfigError(f"key '{key}' is only valid for the kinetic solver")

    if experiment == "stationary":
        lineno, value = take("stationary.l1_target")
        if value is not None:
            cfg.l1_target = _want_float("stationary.l1_target", lineno, value)
            if not cfg.l1_target > 0:
                raise ConfigError(f"line {lineno}: key 'stationary.l1_target': must be > 0")
    if experiment == "limit-study":
        lineno, value = take("limit.c_values")
        if value is not None:
            cs = tuple(_want_float("limit.c_values", lineno, part.strip())
                       for part in value.split(","))
            if len(cs) < 2 or any(not v > 0 for v in cs) or list(cs) != sorted(cs):
                raise ConfigError(f"line {lineno}: key 'limit.c_values': need at least two "
                                  "finite positive values in increasing order")
            cfg.limit_cs = cs
    if experiment == "verify":
        v = cfg.verify
        for name, attr in (("bracket_pairs", "bracket_pairs"), ("psd_samples", "psd_samples"),
                           ("fd_samples", "fd_samples"), ("gradient_checks", "gradient_checks"),
                           ("assembly_states", "assembly_states")):
            lineno, value = take(f"verify.{name}")
            if value is not None:
                n = _want_int(f"verify.{name}", lineno, value)
                if n < 1:
                    raise ConfigError(f"line {lineno}: key 'verify.{name}': must be >= 1")
                setattr(v, attr, n)
        for name in ("refinement", "jacobi"):
            lineno, value = take(f"verify.{name}")
            if value is not None:
                setattr(v, name, _want_bool(f"verify.{name}", lineno, value))

    # tail rule: any experiment that evaluates the equilibrium density needs it
    if experiment in ("kfp", "stationary") or \
            (experiment == "limit-study" and cfg.limit_kind == "kfp"):
        base = cfg.params
        cs = cfg.limit_cs + (INFINITE,) if experiment == "limit-study" else (base.c,)
        for cval in cs:
            p = ModelParams(m=base.m, c=cval, gamma=base.gamma, theta=base.theta,
                            nu=base.nu, d=base.d)
            need = tail_exponent_momentum(p) / 1.01  # without the margin factor
            if cfg.phase_grid.Pmax < need:
                raise ConfigError(
                    f"key 'grid.pmax': {cfg.phase_grid.Pmax} leaves a Boltzmann tail above "
                    f"the 1e-14 cutoff for c={cval}; need at least {need:.3f} (or 'auto')")

    # anything left is a bug in the allowed-key table
    if entries:
        key = next(iter(entries))
        raise ConfigError(f"unhandled key '{key}'")
    return cfg


def load_config(path: str, experiment: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, experiment)
