"""Flat key=value run configuration.

One text format drives every CLI command: UTF-8 lines of ``key=value``, full
lines starting with ``#`` are comments, blank lines ignored. Unknown and
duplicate keys are hard errors with line numbers. Every key has a default, so
an empty file parses to the default run.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .model import ModelConfig
from .synth import SynthSpec


class ConfigError(ValueError):
    """Malformed run configuration text."""


def _shared_fields(cls, skip):
    return [(f.name, f.type, f.default)
            for f in dataclasses.fields(cls) if f.name not in skip]


def _post_init(self):
    object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
    if self.sample_mode not in ("uniform", "random-interval"):
        raise ConfigError(f"sample_mode must be uniform or random-interval, "
                          f"got {self.sample_mode!r}")
    if self.batch_size < 1 or self.steps < 0:
        raise ConfigError("batch_size must be >= 1 and steps >= 0")
    if not 0 <= self.warmup_frac <= 1:
        raise ConfigError("warmup_frac must lie in [0, 1]")
    if not 0 < self.lr < math.inf:
        raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")
    for name in ("beta1", "beta2"):
        if not 0 <= getattr(self, name) < 1:
            raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
    if self.source_frames < self.frames:
        raise ConfigError(f"source_frames {self.source_frames} < clip length "
                          f"{self.frames}")
    try:
        self.model_config()
        self.synth_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _project(self, cls):
    """Build ``cls`` from the run fields it shares by name; its other fields
    keep their defaults."""
    return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)
                  if hasattr(self, f.name)})


# Model keys, then data keys, are declared once in ModelConfig and SynthSpec;
# the optimization, path and seed keys follow. Field order is dump order.
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    _shared_fields(ModelConfig, ("seed",))
    + _shared_fields(SynthSpec, ("height", "width", "seed"))
    + [("lr", float, 0.001),
       ("beta1", float, 0.9),
       ("beta2", float, 0.999),
       ("steps", int, 2000),
       ("batch_size", int, 16),
       ("warmup_frac", float, 0.05),
       ("sample_mode", str, "uniform"),
       ("augment", bool, True),
       ("data_dir", str, ""),
       ("out_dir", str, "runs/default"),
       ("seed", int, 0)],
    namespace={
        "__doc__": "Every key of a run; invalid model or data keys fail at construction.",
        "__module__": __name__,
        "__post_init__": _post_init,
        "model_config": lambda self: _project(self, ModelConfig),
        "synth_spec": lambda self: _project(self, SynthSpec),
    },
    frozen=True)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(field, raw: str, line_no: int):
    name, text = field.name, raw.strip()
    if field.type in ("int", int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"line {line_no}: invalid int for {name!r}: {text!r}")
    if field.type in ("float", float):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"line {line_no}: invalid float for {name!r}: {text!r}")
        if not math.isfinite(value):
            raise ConfigError(f"line {line_no}: non-finite float for {name!r}: {text!r}")
        return value
    if field.type in ("bool", bool):
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"line {line_no}: invalid bool for {name!r}: {text!r} "
                          f"(use true/false)")
    if field.type in ("tuple", tuple):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"line {line_no}: {name!r} needs at least one entry")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"line {line_no}: invalid int list for {name!r}: {text!r}")
    return text


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse config text; ``overrides`` (already typed) win over file values."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _parse_value(_FIELDS[key], raw, line_no)
    if overrides:
        values.update(overrides)
    return RunConfig(**values)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), overrides)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: RunConfig) -> str:
    """Every key on its own line, in declaration order; re-parses to ``cfg``."""
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"
