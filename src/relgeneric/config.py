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
from .model import (EDGE_MARGIN, INFINITE, TAIL_CUTOFF, CosinePotential,
                    HarmonicPotential, ModelParams, Potential, Variant, ZeroPotential,
                    auto_lq, auto_pmax, tail_exponent_momentum)

EXPERIMENTS = ("heat", "kfp", "verify", "stationary", "limit-study")
# verify's operator checks take eigenvalues of dense (cells + 1)^2 matrices: the
# suite takes 0.6 s at 32x32 on a 2-CPU x86-64 VM, and 17.5 s and 690 MB at 64x64
VERIFY_MAX_CELLS = 32 * 32


class ConfigError(Exception):
    pass


@dataclass
class VerifyOptions:
    fd_samples: int
    gradient_checks: int
    assembly_states: int


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
_POSITIVE_OR_AUTO = (lambda v: v is None or v > 0, "must be > 0 or 'auto'")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_EVEN_AT_LEAST_8 = (lambda v: v >= 8 and v % 2 == 0, "must be an even integer >= 8")


class Key(NamedTuple):
    """One config key: ``rule`` is (predicate, message when it fails), ``field``
    the ``RunConfig`` field it sets (``params.m``: ``params``' field ``m``).  A
    run takes it when its experiment, solver (``heat``/``kfp``; ``None``: any)
    and ``when = (key, value, ...)`` match: a key it does not take, or a value."""
    name: str
    parse: Callable[[str], object]
    default: object = None
    rule: tuple | None = None
    field: str | None = None
    experiments: tuple = EXPERIMENTS
    solver: str | None = None
    when: tuple | None = None

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
_RECORDED = ("heat", "kfp", "stationary")                 # runs that record and dump

KEYS = (
    Key("experiment", str),
    Key("seed", _integer, 1, (lambda v: 0 <= v < 2**64, "must be in [0, 2**64)"), field="seed",
        experiments=("verify",)),
    Key("output.dir", str, "out", field="out_dir"),
    Key("output.dump_every", _integer, 0, _NONNEGATIVE, field="dump_every",
        experiments=_RECORDED),
    Key("limit.kind", _choice("heat", "kfp"), "heat", field="limit_kind",
        experiments=("limit-study",)),
    Key("limit.c_values", lambda text: tuple(_number(v.strip()) for v in text.split(",")),
        (10.0, 100.0, 1000.0),
        (lambda cs: len(cs) >= 2 and cs[0] > 0 and all(a < b for a, b in zip(cs, cs[1:])),
         "need at least two finite positive values in strictly increasing order"),
        field="limit_cs", experiments=("limit-study",)),
    Key("model.c", lambda text: _number(text, inf_ok=True), 1.0,
        (lambda v: v > 0, "must be > 0 (use 'inf' for classical mode)"), field="params.c",
        when=("limit.kind", "kfp")),       # a heat limit study sweeps c
    *(Key(f"model.{name}", _number, 1.0, _POSITIVE, field=f"params.{name}", solver="kfp")
      for name in ("m", "gamma", "theta")),
    Key("model.nu", _number, 1.0, _POSITIVE, field="params.nu", solver="heat"),
    Key("model.variant", _choice("dh", "dmr", cast=Variant), Variant.DH,
        field="variant", experiments=_STEPPED, solver="kfp"),
    Key("potential.kind", _choice("zero", "harmonic", "cosine"), "zero", solver="kfp"),
    *(Key(f"potential.{name}", _number, default, rule, solver="kfp", when=("potential.kind", kind))
      for name, default, rule, kind in (("stiffness", 1.0, _NONNEGATIVE, "harmonic"),
                                        ("amplitude", 1.0, _NONNEGATIVE, "cosine"),
                                        ("period", None, _POSITIVE, "cosine"))),  # None: Lq
    Key("grid.n", _integer, 256, (lambda v: v >= 8, "must be an integer >= 8"), solver="heat"),
    Key("grid.length", _number, 2.0, _POSITIVE, solver="heat"),
    *(Key(f"grid.{name}", _integer, default, _EVEN_AT_LEAST_8, experiments=runs, solver="kfp")
      for runs, default in ((_STEPPED, 64), (("verify",), 32)) for name in ("nq", "np")),
    *(Key(f"grid.{end}", _auto, None, _POSITIVE_OR_AUTO, solver="kfp") for end in ("lq", "pmax")),
    Key("solver.dt", _auto, None, _POSITIVE_OR_AUTO, field="dt", experiments=_STEPPED),
    Key("solver.t_final", _number, 1.0, _POSITIVE, field="t_final", experiments=_STEPPED),
    Key("solver.record_every", _integer, 10, _AT_LEAST_1, field="record_every",
        experiments=_RECORDED),
    Key("init.kind", _choice("uniform", "gaussian", "bump"), "gaussian",
        field="heat_init_kind", experiments=_STEPPED, solver="heat"),
    *(Key(f"init.{name}", _number, None, _POSITIVE, field=f"heat_{name}", solver="heat",
          when=("init.kind", kind)) for name, kind in (("sigma", "gaussian"), ("width", "bump"))),
    Key("init.kind", _choice("shifted-maxwellian", "gaussian", "uniform"), "shifted-maxwellian",
        field="init.kind", experiments=_STEPPED, solver="kfp"),
    Key("init.p0", _number, 0.0, None, "init.p0", _STEPPED, "kfp",
        ("init.kind", "gaussian", "shifted-maxwellian")),
    *(Key(f"init.{name}", _number, default, rule, f"init.{name}", _STEPPED, "kfp",
          ("init.kind", "gaussian"))
      for name, default, rule in (("q0", 0.0, None), ("sigma_q", 1.0, _POSITIVE),
                                  ("sigma_p", 1.0, _POSITIVE))),
    Key("stationary.l1_target", _number, 1e-3, _POSITIVE, field="l1_target",
        experiments=("stationary",)),
    *(Key(f"verify.{name}", _integer, default, _AT_LEAST_1, field=f"verify.{name}",
          experiments=("verify",))
      for name, default in (("fd_samples", 10000), ("gradient_checks", 10),
                            ("assembly_states", 20))),
)


def _scope(key: Key, experiment: str, values: dict) -> str | None:
    """Why this run does not take ``key``, or None when it does; ``values``
    holds the keys read so far (``limit.kind`` and each ``when`` key first)."""
    if experiment not in key.experiments:
        return f"not valid for experiment '{experiment}'"
    solver = "heat" if values.get("limit.kind", experiment) == "heat" else "kfp"
    if key.solver not in (None, solver):
        return f"only valid for the {'heat' if key.solver == 'heat' else 'kinetic'} solver"
    if key.when and values.get(key.when[0], key.when[1]) not in key.when[1:]:
        return f"only valid for {key.when[0]} = {' or '.join(key.when[1:])}"
    return None


def parse_value(name: str, text: str, where: str, experiment: str):
    """The value ``text`` gives key ``name`` (no ``when``) in an ``experiment`` run."""
    key = next(key for key in KEYS if key.name == name)
    if why := _scope(key, experiment, {}):
        raise ConfigError(f"{where}: key '{name}' is {why}")
    return key.read(text, where)


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


def parse_config(text: str, experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    entries = _parse_lines(text)

    def at(name):           # where an error about key name points: its line, if set
        return (f"line {entries[name][0]}: " if name in entries else "") + f"key '{name}'"
    values = {}             # each key this run takes
    fields = {}             # each Key.field: fields[""]["seed"], fields["params"]["m"]
    for key in KEYS:
        value = key.default
        if _scope(key, experiment, values) is None:
            if key.name in entries:
                value = key.read(entries[key.name][1], at(key.name))
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
        raise ConfigError(f"{at('experiment')}: file says {values['experiment']!r} but the "
                          f"command line selected '{experiment}'")
    run, params, init = fields[""], ModelParams(**fields["params"]), InitSpec(**fields["init"])
    heat_solver = values.get("limit.kind", experiment) == "heat"

    potential, heat_grid, phase_grid = ZeroPotential(), None, None
    if heat_solver:
        heat_grid = LineGrid(N=values["grid.n"], L=values["grid.length"])
    else:
        lq = values["grid.lq"] or auto_lq(params, values.get("potential.stiffness", 0.0))
        pmax = values["grid.pmax"] or auto_pmax(params)
        for key, extent in (("grid.lq", lq), ("grid.pmax", pmax)):
            if not 0 < extent < math.inf:     # 'auto' with extreme theta, m or stiffness
                raise ConfigError(f"{at(key)}: 'auto' gives {extent!r} for these "
                                  "parameters; set it explicitly")
        phase_grid = PhaseGrid(values["grid.nq"], values["grid.np"], lq, pmax)
        if (kind := values["potential.kind"]) == "harmonic":
            potential = HarmonicPotential(stiffness=values["potential.stiffness"])
        elif kind == "cosine":
            potential = CosinePotential(amplitude=values["potential.amplitude"],
                                        period=values["potential.period"] or lq)

    if experiment == "verify" and phase_grid.Nq * phase_grid.Np > VERIFY_MAX_CELLS:
        raise ConfigError(f"{at('grid.nq')}: {phase_grid.Nq} x {phase_grid.Np} (grid.np) "
                          f"cells, more than the {VERIFY_MAX_CELLS} that verify's dense "
                          "operator checks take")

    # tail rule: any experiment that evaluates the equilibrium density needs it
    if not heat_solver and experiment != "verify":
        for cval in run["limit_cs"] + (INFINITE,) if experiment == "limit-study" else (params.c,):
            need = tail_exponent_momentum(replace(params, c=cval)) / EDGE_MARGIN
            if phase_grid.Pmax < need:
                raise ConfigError(
                    f"{at('grid.pmax')}: {phase_grid.Pmax} leaves a Boltzmann tail above "
                    f"the {TAIL_CUTOFF:.0e} cutoff for c={cval}; need at least {need:.3f} "
                    "(or 'auto')")

    return RunConfig(experiment=experiment, params=params, potential=potential,
                     heat_grid=heat_grid, phase_grid=phase_grid, init=init,
                     verify=VerifyOptions(**fields["verify"]), **run)


def load_config(path: str, experiment: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, experiment)
