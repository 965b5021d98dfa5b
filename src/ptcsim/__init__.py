"""Simulator for sparse photonic tensor-core accelerators.

Layered bottom-up: device models (MZI transfer, thermal coupling, converter
power) -> crossbar layout and crosstalk -> noisy matrix-vector products under
three pruned-execution modes -> accelerator power/area/energy -> structured
dynamic sparse training of small convolutional models on that hardware model.
"""

from __future__ import annotations

from .devices import (
    DeviceModelError,
    DeviceParams,
    GammaFit,
    adc_power,
    edac_power,
    eodac_power,
    gamma,
    leakage_transmission,
    mzi_power,
    phase_to_weight,
    weight_to_phase,
)
from .layout import LayoutParams, coupling_matrices, perturbed_phases
from .core import (
    ExecutionMode,
    RerouterState,
    derive_rng,
    ideal_mvm,
    nmae,
    rerouter_configure,
    simulate_mvm,
)
from .arch import (
    ArchConfig,
    AreaBreakdown,
    PowerBreakdown,
    area,
    chunk_power,
    energy,
    pap,
    power,
)
from .config import Config, ConfigError, SweepSpec, apply_overrides, load_config
from .sparsity import (
    DstSchedule,
    SparsityMask,
    grow_step,
    init_masks,
    mask_power,
    partition,
    prune_step,
)
from .training import (
    PhotonicBackend,
    evaluate_with_variation,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "AreaBreakdown",
    "Config",
    "ConfigError",
    "DeviceModelError",
    "DeviceParams",
    "DstSchedule",
    "ExecutionMode",
    "GammaFit",
    "LayoutParams",
    "PhotonicBackend",
    "PowerBreakdown",
    "RerouterState",
    "SparsityMask",
    "SweepSpec",
    "adc_power",
    "apply_overrides",
    "area",
    "chunk_power",
    "coupling_matrices",
    "derive_rng",
    "edac_power",
    "energy",
    "eodac_power",
    "evaluate_with_variation",
    "gamma",
    "grow_step",
    "ideal_mvm",
    "init_masks",
    "leakage_transmission",
    "load_checkpoint",
    "load_config",
    "mask_power",
    "mzi_power",
    "nmae",
    "pap",
    "partition",
    "perturbed_phases",
    "phase_to_weight",
    "power",
    "prune_step",
    "rerouter_configure",
    "save_checkpoint",
    "simulate_mvm",
    "train",
    "weight_to_phase",
]
