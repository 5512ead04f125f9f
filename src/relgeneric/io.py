"""Serialization: diagnostics CSV and plain-text density dumps.

Floats are written with 17 significant digits so every file round-trips
bitwise; regression baselines can therefore be compared exactly.  A density
dump's rows come from cached per-row templates that hold the formatted
indices and coordinates, so each dump formats only the density values; the
bytes are the same as formatting every cell with ``format(x, ".17g")``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generic import DiagnosticsRecord
from .grid import LineGrid, PhaseGrid

CSV_HEADER = "t,E,S,mass,dSdt,degL,degM,relEnt,e"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_timeseries_csv(records, path) -> None:
    """One header plus one row per record; relEnt stays empty for heat runs."""
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty time series")
    ts = [r.t for r in records]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("records must be strictly monotone in t")
    lines = [CSV_HEADER]
    for r in records:
        rel = "" if r.relEnt is None else _fmt(r.relEnt)
        lines.append(",".join([_fmt(r.t), _fmt(r.E), _fmt(r.S), _fmt(r.mass),
                               _fmt(r.dSdt), _fmt(r.degL), _fmt(r.degM), rel,
                               _fmt(r.e)]))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write time series to {path}: {exc}") from exc


def read_timeseries_csv(path) -> list[DiagnosticsRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"failed to read time series from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a diagnostics CSV (bad header)")
    out = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"{path}: malformed row {line!r}")
        rel = None if parts[7] == "" else float(parts[7])
        out.append(DiagnosticsRecord(
            t=float(parts[0]), E=float(parts[1]), S=float(parts[2]),
            mass=float(parts[3]), dSdt=float(parts[4]), degL=float(parts[5]),
            degM=float(parts[6]), relEnt=rel, e=float(parts[8])))
    return out


@lru_cache(maxsize=4)
def _row_templates(grid) -> tuple[str, ...]:
    """The rows of a dump of ``grid``, one template per q-row (one in all for
    a line grid), with the density left as ``%.17g``."""
    if isinstance(grid, PhaseGrid):
        p = [_fmt(v) for v in grid.p]
        return tuple("".join(f"{i},{j},{q},{pj},%.17g\n" for j, pj in enumerate(p))
                     for i, q in enumerate(map(_fmt, grid.q)))
    return ("".join(f"{i},{_fmt(x)},%.17g\n" for i, x in enumerate(grid.x)),)


def dump_density(kind: str, grid, rho: np.ndarray, t: float, path) -> None:
    """Text dump of a density field; heat dumps omit the momentum columns.

    The body is written q-row by q-row, so only one row's text is held at once.
    """
    if kind == "kfp":
        assert isinstance(grid, PhaseGrid)
        header = (f"# kind=kfp\n# Nq={grid.Nq} Np={grid.Np} Lq={_fmt(grid.Lq)} "
                  f"Pmax={_fmt(grid.Pmax)} t={_fmt(t)}\nqIndex,pIndex,q,p,rho\n")
        shape = grid.shape
    elif kind == "heat":
        assert isinstance(grid, LineGrid)
        header = f"# kind=heat\n# Nq={grid.N} Lq={_fmt(grid.L)} t={_fmt(t)}\nqIndex,q,rho\n"
        shape = (grid.N,)
    else:
        raise ValueError(f"unknown dump kind '{kind}'")
    rho = np.asarray(rho)
    if rho.shape != shape:
        raise ValueError(f"density of shape {rho.shape} does not fit the grid {shape}")
    templates = _row_templates(grid)
    rows = rho.reshape(len(templates), -1)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            for tmpl, row in zip(templates, rows):
                fh.write(tmpl % tuple(row.tolist()))
    except OSError as exc:
        raise OSError(f"failed to write density dump to {path}: {exc}") from exc


def load_density(path):
    """Load a dump written by dump_density: (kind, meta dict, rho array)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"failed to read density dump from {path}: {exc}") from exc
    if len(lines) < 3 or not lines[0].startswith("# kind="):
        raise ValueError(f"{path}: not a density dump")
    kind = lines[0].split("=", 1)[1]
    meta: dict[str, float] = {}
    for token in lines[1].lstrip("# ").split():
        key, value = token.split("=")
        meta[key] = float(value)
    data = lines[3:]
    if kind == "kfp":
        nq, npp = int(meta["Nq"]), int(meta["Np"])
        rho = np.empty((nq, npp))
        for line in data:
            if not line:
                continue
            i, j, _, _, v = line.split(",")
            rho[int(i), int(j)] = float(v)
    elif kind == "heat":
        n = int(meta["Nq"])
        rho = np.empty(n)
        for line in data:
            if not line:
                continue
            i, _, v = line.split(",")
            rho[int(i)] = float(v)
    else:
        raise ValueError(f"{path}: unknown dump kind '{kind}'")
    return kind, meta, rho
