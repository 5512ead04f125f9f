import contextlib
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from relgeneric.cli import main
from relgeneric.generic import Brackets, State
from relgeneric.grid import PhaseGrid
from relgeneric.io import read_timeseries_csv
from relgeneric.model import HarmonicPotential, ModelParams, grid_fields
from relgeneric.rng import SplitMix64

# extreme parameter values for the CLI fuzzes: the ends of the float range and
# everything between
EXTREME = (st.sampled_from(["1e-300", "1e-12", "0.05", "1", "20", "1e12", "1e308"])
           | st.floats(1e-6, 1e6).map(repr))


# a check line the CLI prints: its verdict, name, measured value, op and tolerance
CHECK_LINE = re.compile(r"^  \[(PASS|FAIL)\] (.+): (\S+) (<=|>=) (\S+)$", re.MULTILINE)
# a line of the verify report: name, measured value, op, tolerance and verdict
REPORT_LINE = re.compile(r"^(.+?) +(\S+) (<=|>=) +(\S+)  (PASS|FAIL)", re.MULTILINE)


def printed_checks(printed: str) -> list[tuple]:
    """(passed, name, measured, op, tolerance) of each check line in ``printed``;
    a measured value or tolerance that is not a number fails the caller."""
    return [(verdict == "PASS", name, float(measured), op, float(tolerance))
            for verdict, name, measured, op, tolerance in CHECK_LINE.findall(printed)]


def reported_checks(printed: str) -> list[tuple]:
    """``printed_checks`` of the lines of a printed verify report."""
    return [(verdict == "PASS", name, float(measured), op, float(tolerance))
            for name, measured, op, tolerance, verdict in REPORT_LINE.findall(printed)]


@pytest.fixture
def grid():
    return PhaseGrid(Nq=32, Np=32, Lq=16.5, Pmax=34.0)


@pytest.fixture
def params():
    return ModelParams(m=1.0, c=1.0, gamma=0.5, theta=1.0)


@pytest.fixture
def potential():
    return HarmonicPotential(stiffness=0.25)


@pytest.fixture
def rng():
    return SplitMix64(1234)


def make_state(rng, grid, params, potential, e=0.0):
    """Positive normalized state with Boltzmann tails and random bulk structure."""
    rhat = grid_fields(grid, params, potential, None).rhat
    w = (rng.uniform(-0.5, 0.5)
         * np.sin(2 * np.pi * grid.q_mesh / grid.Lq + rng.uniform(0, 6.28))
         * np.exp(-0.5 * (grid.p_mesh - rng.uniform(-1, 1)) ** 2))
    rho = rhat * np.exp(w)
    rho = rho / (float(np.sum(rho)) * grid.cell_volume)
    return State(rho=rho, e=e)


@pytest.fixture
def state(rng, grid, params, potential):
    return make_state(rng, grid, params, potential, e=0.3)


def run_to_named_outcome(experiment: str, text: str, base) -> str:
    """Run the config ``text`` through the CLI in ``base``; returns what it printed.

    The run must exit 0 with finite outputs (timeseries.csv; limit_study.csv;
    a verify report of finite measured values), 1 with a named solver error
    or a failed check that prints its measured value and tolerance, or 2
    with a config error; never a traceback.
    """
    path = base / "fuzzed.cfg"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([experiment, "--config", str(path), "--out", str(base / "out")])
    printed = out.getvalue()
    assert code in (0, 1, 2), text
    checks = (reported_checks if experiment == "verify" else printed_checks)(printed)
    if code == 2:
        assert printed.startswith("configuration error: "), (text, printed)
    elif code == 1:
        assert (printed.startswith("run failed: ")
                or any(not passed for passed, *_ in checks)), (text, printed)
    else:
        if experiment == "verify":
            values = [measured for _, _, measured, *_ in checks]
        elif experiment == "limit-study":
            rows = (base / "out" / "limit_study.csv").read_text().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")]
        else:
            records = read_timeseries_csv(base / "out" / "timeseries.csv")
            values = [v for rec in records for v in dataclasses.astuple(rec) if v is not None]
        assert values and all(math.isfinite(v) for v in values), (text, printed)
    return printed


def perturb_drift(monkeypatch, eps):
    """Scale the drift column grad_p H of every M(z) built from now on by 1 + eps."""
    init = Brackets.__init__

    def perturbed(self, *args):
        init(self, *args)
        self.fields = self.fields._replace(gh_face=self.fields.gh_face * (1.0 + eps))

    monkeypatch.setattr(Brackets, "__init__", perturbed)
