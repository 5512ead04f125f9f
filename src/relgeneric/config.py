"""Strict flat-key configuration parsing.

Documents are plain text, one ``section.key = value`` per line, ``#`` starts
a comment.  Unknown keys, duplicate keys, empty values, type mismatches, and
physics constraint violations are all hard errors naming the offending key,
so a typo can never silently change an experiment.

Each key is declared once, in ``KEYS``: its parser, default, range rule and
the runs that take it.  Only the rules that tie keys together are code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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
    bracket_pairs: int
    psd_samples: int
    fd_samples: int
    gradient_checks: int
    assembly_states: int
    refinement: bool
    jacobi: bool


@dataclass
class RunConfig:
    """One run's settings; ``parse_config`` fills every field, from ``KEYS``."""
    experiment: str
    seed: int
    out_dir: str
    dump_every: int
    params: ModelParams
    variant: Variant
    potential: Potential
    heat_grid: LineGrid | None
    phase_grid: PhaseGrid | None
    dt: float | None                 # None: the experiment's auto step
    t_final: float
    record_every: int
    init: InitSpec
    heat_init_kind: str
    heat_sigma: float | None
    heat_width: float | None
    l1_target: float
    limit_kind: str
    limit_cs: tuple
    verify: VerifyOptions


# --- value parsers: text -> value, or ValueError saying what was expected

def _number(text, inf_ok=False):
    """A finite number; ``inf_ok`` also takes inf (classical ``model.c``)."""
    if text.lower() in ("inf", "infinite"):
        number = INFINITE
    else:
        try:
            number = float(text)
        except ValueError:
            raise ValueError(f"expected a number, got {text!r}") from None
    if math.isnan(number) or (math.isinf(number) and not inf_ok):
        raise ValueError(f"expected a finite number, got {text!r}")
    return number


def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _boolean(text):
    if text.lower() in ("true", "yes", "1", "false", "no", "0"):
        return text.lower() in ("true", "yes", "1")
    raise ValueError(f"expected true/false, got {text!r}")


def _choice(*options, cast=str):
    def parse(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return cast(text)
    return parse


def _auto(text):
    """``auto`` (None: sized or stepped by the run) or a finite number."""
    return None if text == "auto" else _number(text)


_POSITIVE = (lambda v: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")


class Key(NamedTuple):
    """One config key.  ``rule`` is (predicate, message when it fails), and
    ``field`` the ``RunConfig`` field it sets (``params.m``: ``params``' field
    ``m``).  A run takes the key when its experiment, its solver (``heat`` or
    ``kfp``) and its ``potential.kind`` match; ``None`` matches any."""
    name: str
    parse: Callable[[str], object]
    default: object = None
    rule: tuple | None = None
    field: str | None = None
    experiments: tuple = EXPERIMENTS
    solver: str | None = None
    potential: str | None = None

    def read(self, text: str, where: str):
        """The value ``text`` gives this key; errors begin with ``where``."""
        if not text:
            raise ConfigError(f"{where}: empty value")
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if self.rule and not self.rule[0](value):
            raise ConfigError(f"{where}: {self.rule[1]}")
        return value


_STEPPED = ("heat", "kfp", "stationary", "limit-study")  # runs that take solver.*

KEYS = (
    Key("experiment", str),
    Key("seed", _integer, 1, (lambda v: 0 <= v < 2**64, "must be in [0, 2**64)"), field="seed"),
    Key("output.dir", str, "out", field="out_dir"),
    Key("output.dump_every", _integer, 0, _NONNEGATIVE, field="dump_every"),
    Key("model.m", _number, 1.0, _POSITIVE, field="params.m"),
    Key("model.c", lambda text: _number(text, inf_ok=True), 1.0,
        (lambda v: v > 0, "must be > 0 (use 'inf' for classical mode)"), field="params.c"),
    Key("model.gamma", _number, 1.0, _POSITIVE, field="params.gamma"),
    Key("model.theta", _number, 1.0, _POSITIVE, field="params.theta"),
    Key("model.nu", _number, 1.0, _POSITIVE, field="params.nu"),
    Key("model.d", _integer, 1, (lambda v: v == 1, "solvers support d = 1 only"),
        field="params.d"),
    Key("model.variant", _choice("dh", "dmr", "classical", cast=Variant), Variant.DH,
        field="variant"),
    Key("potential.kind", _choice("zero", "harmonic", "cosine"), "zero"),
    Key("potential.stiffness", _number, 1.0, _NONNEGATIVE, potential="harmonic"),
    Key("potential.amplitude", _number, 1.0, _NONNEGATIVE, potential="cosine"),
    Key("potential.period", _number, None, _POSITIVE, potential="cosine"),  # None: Lq
    Key("limit.kind", _choice("heat", "kfp"), "heat", field="limit_kind",
        experiments=("limit-study",)),
    Key("limit.c_values", lambda text: tuple(_number(v.strip()) for v in text.split(",")),
        (10.0, 100.0, 1000.0),
        (lambda cs: len(cs) >= 2 and cs[0] > 0 and all(a < b for a, b in zip(cs, cs[1:])),
         "need at least two finite positive values in strictly increasing order"),
        field="limit_cs", experiments=("limit-study",)),
    Key("grid.n", _integer, 256, solver="heat"),
    Key("grid.length", _number, 2.0, solver="heat"),
    Key("grid.nq", _integer, 64, solver="kfp"),
    Key("grid.np", _integer, 64, solver="kfp"),
    Key("grid.lq", _auto, solver="kfp"),
    Key("grid.pmax", _auto, solver="kfp"),
    Key("solver.dt", _auto, None, (lambda v: v is None or v > 0, "must be > 0 or 'auto'"),
        field="dt", experiments=_STEPPED),
    Key("solver.t_final", _number, 1.0, _POSITIVE, field="t_final", experiments=_STEPPED),
    Key("solver.record_every", _integer, 10, _AT_LEAST_1, field="record_every",
        experiments=_STEPPED),
    Key("init.kind", _choice("uniform", "gaussian", "bump"), "gaussian",
        field="heat_init_kind", experiments=_STEPPED, solver="heat"),
    Key("init.sigma", _number, None, _POSITIVE, field="heat_sigma", solver="heat"),
    Key("init.width", _number, None, _POSITIVE, field="heat_width", solver="heat"),
    *(Key(f"init.{name}", parse, default, field=f"init.{name}", experiments=_STEPPED,
          solver="kfp")
      for name, parse, default in (
          ("kind", _choice("shifted-maxwellian", "gaussian", "uniform"), "shifted-maxwellian"),
          ("p0", _number, 0.0), ("q0", _number, 0.0),
          ("sigma_q", _number, 1.0), ("sigma_p", _number, 1.0))),
    Key("stationary.l1_target", _number, 1e-3, _POSITIVE, field="l1_target",
        experiments=("stationary",)),
    *(Key(f"verify.{name}", _integer, default, _AT_LEAST_1, field=f"verify.{name}",
          experiments=("verify",))
      for name, default in (("bracket_pairs", 200), ("psd_samples", 10000),
                            ("fd_samples", 10000), ("gradient_checks", 10),
                            ("assembly_states", 20))),
    *(Key(f"verify.{name}", _boolean, True, field=f"verify.{name}",
          experiments=("verify",)) for name in ("refinement", "jacobi")),
)


def _scope(key: Key, experiment: str, values: dict) -> str | None:
    """Why this run does not take ``key``, or None when it does; ``values``
    holds the keys read so far (``limit.kind`` and ``potential.kind`` first)."""
    if experiment not in key.experiments:
        return f"not valid for experiment '{experiment}'"
    solver = "heat" if values.get("limit.kind", experiment) == "heat" else "kfp"
    if key.solver not in (None, solver):
        return f"only valid for the {'heat' if key.solver == 'heat' else 'kinetic'} solver"
    if key.potential not in (None, values.get("potential.kind")):
        return f"only valid for potential.kind = {key.potential}"
    return None


def parse_value(name: str, text: str, where: str):
    """The value ``text`` gives key ``name`` by its ``KEYS`` entry."""
    return next(key for key in KEYS if key.name == name).read(text, where)


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


def parse_config(text: str, experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    entries = _parse_lines(text)
    values = {}             # each key this run takes
    fields = {}             # each Key.field: fields[""]["seed"], fields["params"]["m"]
    for key in KEYS:
        value = key.default
        if _scope(key, experiment, values) is None:
            if key.name in entries:
                lineno, given = entries[key.name]
                value = key.read(given, f"line {lineno}: key '{key.name}'")
            values[key.name] = value
        if key.field:
            head, _, attr = key.field.rpartition(".")
            fields.setdefault(head, {})[attr] = value
    for name, (lineno, _) in entries.items():
        if name not in values:
            why = [_scope(key, experiment, values) for key in KEYS if key.name == name]
            raise ConfigError(f"line {lineno}: " + (f"key '{name}' is {why[0]}" if why else
                              f"unknown key '{name}' for experiment '{experiment}'"))

    # --- rules that tie keys together
    if values["experiment"] not in (None, experiment):
        raise ConfigError(f"line {entries['experiment'][0]}: key 'experiment': file says "
                          f"{values['experiment']!r} but the command line selected '{experiment}'")
    run, params, init = fields[""], ModelParams(**fields["params"]), InitSpec(**fields["init"])
    if experiment in ("kfp", "stationary"):
        try:
            check_variant(run["variant"], params)
        except ValueError as exc:
            raise ConfigError(f"key 'model.variant': {exc}; set model.c = inf for the "
                              "classical variant or a finite model.c for dh and dmr") from None
    kind = values["potential.kind"]
    heat_solver = values.get("limit.kind", experiment) == "heat"
    if heat_solver and kind != "zero":
        raise ConfigError("key 'potential.kind': the heat solver carries no external potential")
    if experiment == "limit-study" and not heat_solver and run["variant"] is Variant.CLASSICAL:
        raise ConfigError(f"line {entries['model.variant'][0]}: key 'model.variant': a kinetic "
                          "limit study sweeps dh or dmr against the classical baseline")
    if init.kind == "gaussian" and (init.sigma_q <= 0 or init.sigma_p <= 0):
        raise ConfigError("key 'init.sigma_q'/'init.sigma_p': must be > 0")

    potential, heat_grid, phase_grid = ZeroPotential(), None, None
    if heat_solver:
        try:
            heat_grid = LineGrid(N=values["grid.n"], L=values["grid.length"])
        except ValueError as exc:
            raise ConfigError(f"grid.n/grid.length: {exc}") from None
    else:
        lq, pmax = values["grid.lq"], values["grid.pmax"]
        stiffness = values.get("potential.stiffness", 0.0)
        if lq is None:      # a harmonic trap's tail edge, else 4 pi
            lq = (2.0 * math.sqrt(2.0 * params.theta * _TAIL_EXPONENT / stiffness) * 1.01
                  if stiffness > 0 else 4.0 * math.pi)
        if pmax is None:
            pmax = tail_exponent_momentum(params) * 1.01
        for key, extent in (("grid.lq", lq), ("grid.pmax", pmax)):
            if not math.isfinite(extent):      # 'auto' with extreme theta, m or stiffness
                raise ConfigError(f"key '{key}': 'auto' gives {extent!r} for these "
                                  "parameters; set it explicitly")
        try:
            phase_grid = PhaseGrid(values["grid.nq"], values["grid.np"], lq, pmax)
        except ValueError as exc:
            raise ConfigError(f"grid.nq/np/lq/pmax: {exc}") from None
        if kind == "harmonic":
            potential = HarmonicPotential(stiffness=values["potential.stiffness"])
        elif kind == "cosine":
            potential = CosinePotential(amplitude=values["potential.amplitude"],
                                        period=values["potential.period"] or lq)

    # tail rule: any experiment that evaluates the equilibrium density needs it
    if not heat_solver and experiment != "verify":
        for cval in run["limit_cs"] + (INFINITE,) if experiment == "limit-study" else (params.c,):
            need = tail_exponent_momentum(replace(params, c=cval)) / 1.01
            if phase_grid.Pmax < need:
                raise ConfigError(
                    f"key 'grid.pmax': {phase_grid.Pmax} leaves a Boltzmann tail above "
                    f"the 1e-14 cutoff for c={cval}; need at least {need:.3f} (or 'auto')")

    return RunConfig(experiment=experiment, params=params, potential=potential,
                     heat_grid=heat_grid, phase_grid=phase_grid, init=init,
                     verify=VerifyOptions(**fields["verify"]), **run)


def load_config(path: str, experiment: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, experiment)
