"""JSON configuration loading for the CLI.

A config file is a JSON object with up to five sections -- "device",
"layout", "arch", "dst", "sweep" -- each overriding defaults field by
field.  Unknown sections or keys are hard errors (reported with dotted
paths) so that typos never silently fall back to defaults.  An empty file
or empty object means all defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .arch import ArchConfig
from .devices import DeviceModelError, DeviceParams
from .layout import LayoutParams
from .sparsity import DstSchedule


class ConfigError(Exception):
    """Bad configuration file: unknown keys, wrong types, invalid values."""


@dataclass(frozen=True)
class DstConfig:
    """Dynamic sparse training hyper-parameters."""

    density: float = 0.5
    epochs: int = 40
    batch_size: int = 64
    lr: float = 2e-3
    alpha0: float = 0.5          # initial death-rate amplitude
    t_end_frac: float = 0.8      # fraction of epochs over which alpha decays
    pool_margin: int = 2         # extra prune candidates considered per layer

    def __post_init__(self) -> None:
        if not 0.0 < self.density <= 1.0:
            raise ConfigError(f"dst.density must be in (0, 1], got {self.density}")
        if self.batch_size < 1:
            raise ConfigError("dst.batch_size must be >= 1")
        if not self.lr > 0:
            raise ConfigError("dst.lr must be positive")
        self.schedule()

    def schedule(self) -> DstSchedule:
        """The prune/grow schedule these settings give; its rules are the
        only statement of the ranges of epochs, alpha0, t_end_frac and
        pool_margin."""
        try:
            return DstSchedule.for_epochs(self.epochs, self.alpha0,
                                          self.t_end_frac, self.pool_margin)
        except DeviceModelError as exc:
            raise ConfigError(f"dst: {exc}") from exc


_SWEEPABLE = {"device": DeviceParams, "layout": LayoutParams, "arch": ArchConfig}


def _axis_field(path: str) -> tuple[str, str]:
    """Validate a dotted axis path and split it into (section, field)."""
    parts = path.split(".")
    if len(parts) != 2:
        raise ConfigError(f"sweep axis '{path}' must look like 'section.field'")
    section, field = parts
    cls = _SWEEPABLE.get(section)
    if cls is None:
        raise ConfigError(
            f"sweep axis '{path}': section must be one of "
            + ", ".join(sorted(_SWEEPABLE)))
    if field not in {f.name for f in dataclasses.fields(cls)}:
        raise ConfigError(f"sweep axis '{path}': '{section}' has no field '{field}'")
    return section, field


@dataclass(frozen=True)
class SweepSpec:
    """Parameter grid for sweeps: named axes with value lists.

    Axis names are dotted config paths ("layout.l_s_um", "arch.r", ...);
    multiple axes combine as a full cartesian product with the first axis
    varying slowest.  In JSON, axes may be given either as an object
    {"layout.l_s_um": [7, 8, 9]} or as a list of [path, values] pairs.
    The default grid sweeps the MZI arm spacing over 7..11 um.
    """

    axes: tuple[tuple[str, tuple], ...] = (
        ("layout.l_s_um", (7.0, 8.0, 9.0, 10.0, 11.0)),
    )

    def __post_init__(self) -> None:
        raw = self.axes
        if isinstance(raw, dict):
            raw = tuple(raw.items())
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError("sweep.axes must name at least one axis")
        normalized, seen = [], set()
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(
                    "each sweep axis must be a [path, values] pair")
            path, values = entry
            if not isinstance(path, str):
                raise ConfigError(f"sweep axis name must be a string, got {path!r}")
            _axis_field(path)
            if path in seen:
                raise ConfigError(f"duplicate sweep axis '{path}'")
            seen.add(path)
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigError(f"sweep axis '{path}' needs a non-empty value list")
            normalized.append((path, tuple(values)))
        object.__setattr__(self, "axes", tuple(normalized))

    def grid(self) -> list[dict[str, object]]:
        """Every axis-value combination, first axis varying slowest."""
        points: list[dict[str, object]] = [{}]
        for path, values in self.axes:
            points = [dict(pt, **{path: v}) for pt in points for v in values]
        return points


@dataclass(frozen=True)
class Config:
    device: DeviceParams
    layout: LayoutParams
    arch: ArchConfig
    dst: DstConfig
    sweep: SweepSpec
    seed: int | None = None   # optional top-level seed; CLI --seed wins


_SECTION_TYPES = {
    "device": DeviceParams,
    "layout": LayoutParams,
    "arch": ArchConfig,
    "dst": DstConfig,
    "sweep": SweepSpec,
}


def _build_section(name: str, cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if name == "layout" and key == "l_h_um":
            # Derived quantity; accepted only as a consistency assertion.
            kwargs["_l_h_um"] = value
            continue
        if key not in fields:
            raise ConfigError(f"unknown key '{name}.{key}'")
        f = fields[key]
        if f.type in ("int", int) and isinstance(value, float) and value != int(value):
            raise ConfigError(f"'{name}.{key}' must be an integer, got {value}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    declared_l_h = kwargs.pop("_l_h_um", None)
    try:
        obj = cls(**kwargs)
    except (DeviceModelError, TypeError, ValueError) as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc
    if declared_l_h is not None:
        actual = obj.l_h_um
        if abs(actual - declared_l_h) > 1e-9:
            raise ConfigError(
                f"layout.l_h_um={declared_l_h} contradicts the derived column "
                f"pitch l_s + ps_width + l_g = {actual}")
    return obj


def load_config(path: str | Path | None) -> Config:
    """Load and validate a JSON config file; None or empty file = defaults."""
    raw: dict = {}
    if path is not None:
        text = Path(path).read_text()
        if text.strip():
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")

    seed = raw.pop("seed", None)
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError(f"top-level seed must be an integer, got {seed!r}")

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        sections[name] = _build_section(name, cls, raw.pop(name, {}))
    if raw:
        raise ConfigError("unknown section(s): " + ", ".join(sorted(raw)))

    return Config(**sections, seed=seed)


def apply_overrides(cfg: Config, point: dict[str, object]) -> Config:
    """Config with the dotted-path values of one sweep point substituted.

    Section validation reruns on the new values, so an out-of-range value
    surfaces as a ConfigError naming the point rather than a crash deep in
    a model call.
    """
    per_section: dict[str, dict] = {}
    for path, value in point.items():
        section, field = _axis_field(path)
        per_section.setdefault(section, {})[field] = value

    try:
        device = dataclasses.replace(cfg.device, **per_section.get("device", {}))
        layout = dataclasses.replace(cfg.layout, **per_section.get("layout", {}))
        arch = dataclasses.replace(cfg.arch, **per_section.get("arch", {}))
    except (DeviceModelError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep point {point}: {exc}") from exc
    return dataclasses.replace(cfg, device=device, layout=layout, arch=arch)


def resolve_seed(cli_seed: int | None, cfg: Config) -> int:
    """CLI flag beats config file beats the default of 0."""
    if cli_seed is not None:
        return cli_seed
    if cfg.seed is not None:
        return cfg.seed
    return 0
