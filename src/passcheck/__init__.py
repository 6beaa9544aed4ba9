"""Adaptive sampling passivity verification for scattering macromodels.

Importing the package loads numpy only.  scipy is imported only by the
Hamiltonian oracle's eigensolver (``hamiltonian.imaginary_crossings``), so
a check, passive or violating, never pays for it.
"""

from .model import (PoleResidueModel, StateSpaceModel, evaluate_transfer,
                    load_model, passivity_metric, realize, save_model, validate)
from .report import PassivityReport, ViolationBand
from .verifier import check_passivity, dense_reference_check, preset

__all__ = [
    "PoleResidueModel", "StateSpaceModel", "PassivityReport", "ViolationBand",
    "evaluate_transfer", "passivity_metric", "validate", "realize",
    "load_model", "save_model", "check_passivity", "dense_reference_check",
    "preset",
]

__version__ = "0.1.0"
