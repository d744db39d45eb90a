"""Certified machine unlearning via block-wise noisy fine-tuning."""

import importlib

from . import accounting, audit, datasets, engine, harness, model, subspace
from .errors import (
    DomainError,
    FormatError,
    InfeasibleBudget,
    InfeasibleNoise,
    NumericalError,
    UnlearnError,
)

__all__ = [
    "accounting",
    "audit",
    "datasets",
    "divergence",
    "engine",
    "harness",
    "model",
    "subspace",
    "DomainError",
    "FormatError",
    "InfeasibleBudget",
    "InfeasibleNoise",
    "NumericalError",
    "UnlearnError",
]

__version__ = "0.1.0"


def __getattr__(name):
    # divergence loads on first use: no stage of the pipeline needs it, only
    # `divergence-check`; `from . import divergence` here would recurse
    if name == "divergence":
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
