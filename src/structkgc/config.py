"""Run configuration: a flat key=value file validated before any compute.

Unknown keys, a key set twice, type errors and every constraint owned
by a downstream module (encoder dims, temperature range, sampler sizes,
component switches) are rejected at parse time.  Evaluation settings (score mode,
re-ranking, filter splits) are command-line options, not config keys.

Every other key but ``dataset`` and ``min_token_freq`` fills the
same-named field of ``ModelConfig`` or ``TrainConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .graph import DataError, read_text
from .model import ModelConfig
from .structural import AseKind
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # data
    dataset: str = ""
    min_token_freq: int = 2
    # model dims
    struct_dim: int = 64
    layers: int = 2
    hidden_dim: int = 64
    heads: int = 4
    max_len: int = 64
    ase_kind: str = "additive"
    # component switches
    use_text: bool = True
    use_ase: bool = True
    use_mh: bool = True
    use_ir: bool = True
    # loss
    tau_init: float = 0.05
    tau_min: float = 0.01
    tau_max: float = 1.0
    margin: float = 0.02
    beta: float = 0.5
    # negatives
    queue_capacity: int = 256
    hardest_k: int = 32
    mh_count: int = 64
    ir_count: int = 3
    momentum: float = 0.999
    # optimizer / loop
    lr: float = 5e-4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    def validate(self):
        try:
            AseKind(self.ase_kind)
        except ValueError:
            raise ConfigError(
                f"ase_kind must be one of "
                f"{[k.value for k in AseKind]}, got {self.ase_kind!r}"
            ) from None
        if self.use_mh and not self.use_text:
            raise ConfigError("use_mh needs the text path (use_text=true)")
        if self.min_token_freq < 1:
            raise ConfigError(
                f"min_token_freq must be at least 1, got {self.min_token_freq}"
            )
        # delegate the rest to the owning modules' own validation, in the
        # order train (loss settings first), then model
        try:
            self.train_config()
            self.model_config(num_entities=2, num_base_relations=1,
                              vocab_size=16 if self.use_text else 0)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not self.tau_min <= self.tau_init <= self.tau_max:
            raise ConfigError(
                f"tau_init {self.tau_init} outside clamp range "
                f"[{self.tau_min}, {self.tau_max}]"
            )

    # ------------------------------------------------------------------
    def _fill(self, component, **given):
        """``component`` built from ``given`` plus, for each other field,
        the run config key of the same name."""
        values = {f.name: getattr(self, f.name) for f in fields(component)
                  if f.name not in given}
        if "ase_kind" in values:
            values["ase_kind"] = AseKind(values["ase_kind"])
        return component(**values, **given)

    def model_config(self, num_entities: int, num_base_relations: int,
                     vocab_size: int) -> ModelConfig:
        return self._fill(ModelConfig, num_entities=num_entities,
                          num_base_relations=num_base_relations,
                          vocab_size=vocab_size)

    def train_config(self) -> TrainConfig:
        return self._fill(TrainConfig)


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
