"""Structure-preserving solvers for the relativistic heat equation and the
relativistic kinetic Fokker-Planck equations in metriplectic (GENERIC) form."""

import os

# one BLAS thread unless the environment says otherwise, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .generic import CotangentVector, DiagnosticsRecord, State
from .grid import LineGrid, PhaseGrid
from .model import (INFINITE, CosinePotential, HarmonicPotential, ModelParams,
                    Potential, Variant, ZeroPotential)

__all__ = [
    "CotangentVector", "DiagnosticsRecord", "State", "LineGrid", "PhaseGrid",
    "INFINITE", "CosinePotential", "HarmonicPotential", "ModelParams",
    "Potential", "Variant", "ZeroPotential",
]
