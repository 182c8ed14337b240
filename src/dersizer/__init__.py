"""Microgrid DER sizing: diverse rightsized designs for a power load profile."""

from .core import (
    DEFAULT_CAPACITY_PRECISION,
    DerKind,
    DerSpec,
    DesignSpace,
    LoadProfile,
    MicrogridDesign,
    capacity_grid,
    deficit_ratio,
)
from .search import SearchConfig, run_pipeline
from .simulator import DispatchConfig, operate

__all__ = [
    "DEFAULT_CAPACITY_PRECISION",
    "DerKind",
    "DerSpec",
    "DesignSpace",
    "DispatchConfig",
    "LoadProfile",
    "MicrogridDesign",
    "SearchConfig",
    "capacity_grid",
    "deficit_ratio",
    "operate",
    "run_pipeline",
]
