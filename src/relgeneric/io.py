"""Serialization, through one writer and one reader: CSVs and density dumps.

Floats are written with 17 significant digits so every file round-trips
bitwise; regression baselines can therefore be compared exactly.  A density
dump's rows come from cached per-row templates that hold the formatted
indices and coordinates, so each dump formats only the density values; the
bytes are the same as formatting every cell with ``format(x, ".17g")``.  The
templates of a phase grid are built in one pass: one q-row's text, its
momentum columns formatted once, with two sentinels that two ``str.replace``
calls per row turn into the row's index and position.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .generic import DiagnosticsRecord
from .grid import LineGrid, PhaseGrid

CSV_HEADER = "t,E,S,mass,dSdt,degL,degM,relEnt,e"
_COLUMNS = CSV_HEADER.split(",")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_text(path, what: str, chunks) -> None:
    """Write the strings ``chunks`` to ``path`` in turn; an OSError names ``what``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"failed to write {what} to {path}: {exc}") from exc


def _read_lines(path, what: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"failed to read {what} from {path}: {exc}") from exc


def write_limit_csv(deviations, path) -> None:
    write_text(path, "limit study",
               ["c,deviation\n"] + [f"{_fmt(c)},{_fmt(dev)}\n" for c, dev in deviations])


def write_timeseries_csv(records, path) -> None:
    """One header plus one row per record; relEnt stays empty for heat runs.
    A value that is not finite is a ValueError."""
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty time series")
    ts = [r.t for r in records]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("records must be strictly monotone in t")
    lines = [CSV_HEADER]
    for r in records:
        values = [getattr(r, name) for name in _COLUMNS]
        if bad := [f"{name} = {v!r}" for name, v in zip(_COLUMNS, values)
                   if v is not None and not math.isfinite(v)]:
            raise ValueError(f"refusing to write a time series with {', '.join(bad)}")
        lines.append(",".join("" if v is None else _fmt(v) for v in values))
    write_text(path, "time series", ("\n".join(lines) + "\n",))


def read_timeseries_csv(path) -> list[DiagnosticsRecord]:
    lines = _read_lines(path, "time series")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a diagnostics CSV (bad header)")
    out = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        out.append(DiagnosticsRecord(**{name: None if name == "relEnt" and v == "" else float(v)
                                        for name, v in zip(_COLUMNS, parts)}))
    return out


@lru_cache(maxsize=4)
def _row_templates(grid) -> tuple[str, ...]:
    """The rows of a dump of ``grid``, one template per q-row (one in all for
    a line grid), with the density left as ``%.17g``."""
    if isinstance(grid, PhaseGrid):
        # one q-row's text with the sentinels \0 for qIndex and \1 for q, which
        # no formatted number holds; each row is two replaces of it
        row = "".join(f"\0,{j},\1,{_fmt(p)},%.17g\n" for j, p in enumerate(grid.p))
        return tuple(row.replace("\0", str(i)).replace("\1", _fmt(q))
                     for i, q in enumerate(grid.q))
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
    write_text(path, "density dump", itertools.chain(
        (header,), (tmpl % tuple(row.tolist()) for tmpl, row in zip(templates, rows))))


def load_density(path):
    """Load a dump written by dump_density: (kind, meta dict, rho array).
    A body that does not hold every cell exactly once is a ValueError."""
    lines = _read_lines(path, "density dump")
    if len(lines) < 3 or not lines[0].startswith("# kind="):
        raise ValueError(f"{path}: not a density dump")
    kind = lines[0].split("=", 1)[1]
    meta = {key: float(value)
            for key, value in (token.split("=") for token in lines[1].lstrip("# ").split())}
    if kind not in ("kfp", "heat"):
        raise ValueError(f"{path}: unknown dump kind '{kind}'")
    # rows qIndex,pIndex,q,p,rho on a phase grid, qIndex,q,rho on a line
    shape = (int(meta["Nq"]), int(meta["Np"])) if kind == "kfp" else (int(meta["Nq"]),)
    rows = [line for line in lines[3:] if line]
    try:
        body = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    index = body[:, :len(shape)]
    if not (body.shape == (math.prod(shape), 2 * len(shape) + 1)
            and np.all((index >= 0) & (index < shape) & (index == np.floor(index)))
            and np.unique(np.ravel_multi_index(index.T.astype(int), shape)).size == len(rows)):
        raise ValueError(f"{path}: the body does not hold each of the {math.prod(shape)} "
                         "cells exactly once")
    rho = np.empty(shape)
    rho[tuple(index.T.astype(int))] = body[:, -1]
    return kind, meta, rho
