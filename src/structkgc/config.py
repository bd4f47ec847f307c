"""Run configuration: a flat key=value file validated before any compute.

Unknown keys, a key set twice, type errors and every constraint owned
by a downstream module (encoder dims, temperature range, sampler sizes,
component switches) are rejected at parse time.  Evaluation settings (score mode,
re-ranking, filter splits) are command-line options, not config keys.

The keys are ``dataset`` and ``min_token_freq``, then every field of
``ModelConfig`` and then of ``TrainConfig`` but the three the dataset
decides, in declaration order with the components' own types and
defaults; each fills the same-named component field.
"""

from __future__ import annotations

from dataclasses import field, fields, make_dataclass

from .graph import DataError, read_text
from .model import ModelConfig
from .structural import AseKind
from .text import MIN_TOKEN_FREQ
from .training import TrainConfig, require_text_path

# ModelConfig fields that the dataset and its vocabulary decide
_DATA_DERIVED = ("num_entities", "num_base_relations", "vocab_size")


class ConfigError(ValueError):
    pass


class _RunConfigBase:
    def __post_init__(self):
        try:
            self.ase_kind = AseKind(self.ase_kind)
        except ValueError:
            raise ConfigError(
                f"ase_kind must be one of "
                f"{[k.value for k in AseKind]}, got {self.ase_kind!r}"
            ) from None
        if self.min_token_freq < 1:
            raise ConfigError(
                f"min_token_freq must be at least 1, got {self.min_token_freq}"
            )
        # delegate the rest to the owning modules' own validation, in the
        # order train (loss settings first), then model
        try:
            train = self.train_config()
            self.model_config(num_entities=2, num_base_relations=1,
                              vocab_size=16 if self.use_text else 0)
            require_text_path(train, self.use_text)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not self.tau_min <= self.tau_init <= self.tau_max:
            raise ConfigError(
                f"tau_init {self.tau_init} outside clamp range "
                f"[{self.tau_min}, {self.tau_max}]"
            )

    def _fill(self, component, **given):
        """``component`` built from ``given`` plus, for each other field,
        the run config key of the same name."""
        values = {f.name: getattr(self, f.name) for f in fields(component)
                  if f.name not in given}
        return component(**values, **given)

    def model_config(self, num_entities: int, num_base_relations: int,
                     vocab_size: int) -> ModelConfig:
        return self._fill(ModelConfig, num_entities=num_entities,
                          num_base_relations=num_base_relations,
                          vocab_size=vocab_size)

    def train_config(self) -> TrainConfig:
        return self._fill(TrainConfig)


RunConfig = make_dataclass(
    "RunConfig",
    [("dataset", "str", field(default="")),
     ("min_token_freq", "int", field(default=MIN_TOKEN_FREQ))]
    + [(f.name, f.type, field(default=f.default))
       for component in (ModelConfig, TrainConfig) for f in fields(component)
       if f.name not in _DATA_DERIVED],
    bases=(_RunConfigBase,),
    namespace={"__module__": __name__},
)


def _coerce(field_type, raw: str, key: str):
    raw = raw.strip()
    if field_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if field_type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if field_type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a key=value file, each key at most once; ``overrides`` win
    over file values."""
    values: dict = {}
    field_types = {f.name: f.type for f in fields(RunConfig)}
    type_map = {"int": int, "float": float, "bool": bool, "str": str}
    try:
        text = read_text(path)
    except DataError as e:
        raise ConfigError(str(e)) from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in field_types:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: key {key!r} is set twice")
        ftype = type_map.get(field_types[key], str)
        values[key] = _coerce(ftype, raw, key)
    if overrides:
        values.update(overrides)
    return RunConfig(**values)
