from dataclasses import fields

import pytest

from structkgc.config import ConfigError, RunConfig, parse_config
from structkgc.model import ModelConfig
from structkgc.structural import AseKind
from structkgc.training import TrainConfig

# every RunConfig field at a valid value other than its default, except
# that the text and structural paths cannot both be off: each variant
# below turns one of them off
NON_DEFAULT = dict(
    dataset="data/x", min_token_freq=3, struct_dim=32, layers=3,
    hidden_dim=48, heads=6, max_len=20, ase_kind="rotation",
    share_text_encoders=True, use_mh=False, use_ir=False, tau_init=0.1,
    tau_min=0.02, tau_max=0.5, margin=0.05, beta=0.25, queue_capacity=64,
    hardest_k=8, mh_count=16, ir_count=2, momentum=0.99, lr=1e-3,
    weight_decay=0.05, clip_norm=2.0, epochs=4, batch_size=16, seed=7,
)
NON_DEFAULT_VARIANTS = [{"use_text": False}, {"use_ase": False}]
DATA_DERIVED = {"num_entities", "num_base_relations", "vocab_size"}


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.tau_init == 0.05
        assert cfg.margin == 0.02
        assert cfg.ir_count == 3

    def test_defaults_equal_the_component_defaults(self):
        """The README lists each default once for the run config and once
        per component; the two lists must agree."""
        cfg = RunConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.model_config(num_entities=5, num_base_relations=2,
                                vocab_size=16) == ModelConfig(
            num_entities=5, num_base_relations=2, vocab_size=16)

    def test_every_key_reaches_a_component_config(self):
        """No RunConfig key is inert and no component field is unreachable."""
        defaults = RunConfig()
        changed = set()
        for variant in NON_DEFAULT_VARIANTS:
            cfg = RunConfig(**{**NON_DEFAULT, **variant})
            parts = [cfg.model_config(num_entities=5, num_base_relations=2,
                                      vocab_size=16 if cfg.use_text else 0),
                     cfg.train_config()]
            for f in fields(RunConfig):
                value = getattr(cfg, f.name)
                if value != getattr(defaults, f.name):
                    changed.add(f.name)
                if f.name in ("dataset", "min_token_freq"):
                    continue
                if f.name == "ase_kind":
                    value = AseKind(value)
                reached = [getattr(p, f.name) for p in parts if hasattr(p, f.name)]
                assert reached, f"RunConfig.{f.name} reaches no component config"
                assert all(v == value for v in reached), f.name
            run_keys = {f.name for f in fields(RunConfig)}
            for part in parts:
                for f in fields(part):
                    assert f.name in run_keys | DATA_DERIVED, (
                        f"{type(part).__name__}.{f.name} cannot be set from a run config"
                    )
        assert changed == {f.name for f in fields(RunConfig)}

    # fail-fast table: one invalid fixture per downstream constraint
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ase_kind": "bilinear"},
            {"ase_kind": "rotation", "struct_dim": 33},
            {"hidden_dim": 30, "heads": 4},
            {"tau_init": -1.0},
            {"tau_init": 0.005},            # below the clamp floor
            {"margin": -0.1},
            {"beta": -0.5},
            {"use_mh": True, "use_text": False},
            {"use_text": False, "use_ase": False, "use_mh": False},
            {"min_token_freq": 0},
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": -1e-4},
            {"momentum": 1.5},
            {"queue_capacity": 0},
            {"hardest_k": 1},
            {"ir_count": -2},
        ],
    )
    def test_invalid_rejected_at_parse_time(self, kwargs):
        with pytest.raises((ConfigError, ValueError)):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["lr", "weight_decay", "clip_norm", "momentum",
                                     "margin", "beta", "tau_init", "tau_min", "tau_max"])
    def test_non_finite_float_rejected_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("kwargs,first", [
        ({"margin": -1.0, "epochs": 0}, "margin must be non-negative"),
        ({"tau_min": 0.5, "tau_max": 0.1, "lr": float("nan")},
         "temperature clamp range"),
        ({"beta": -1.0, "hidden_dim": 30}, "structural weight must be non-negative"),
        ({"tau_max": float("inf"), "momentum": 1.5}, "tau_max must be a finite"),
        ({"epochs": 0, "hidden_dim": 30}, "epochs and batch size must be positive"),
        ({"queue_capacity": 0, "ase_kind": "rotation", "struct_dim": 7},
         "queue capacity"),
        ({"hidden_dim": 30, "tau_init": 2.0}, "hidden dim 30 not divisible"),
    ])
    def test_several_bad_keys_report_the_first_owner_check(self, kwargs, first):
        """Loss settings, then loop settings, then model settings."""
        with pytest.raises(ConfigError, match=f"^{first}"):
            RunConfig(**kwargs)

    def test_struct_only_config_valid(self):
        cfg = RunConfig(use_text=False, use_mh=False, use_ir=False)
        assert not cfg.use_text


class TestParseConfig:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# toy run\n"
            "dataset = data/toy\n"
            "struct_dim = 16\n"
            "use_mh = false\n"
            "beta = 0.25\n"
            "\n"
        )
        cfg = parse_config(path, overrides={"seed": 9})
        assert cfg.dataset == "data/toy"
        assert cfg.struct_dim == 16
        assert cfg.use_mh is False
        assert cfg.beta == 0.25
        assert cfg.seed == 9

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("struct_dims = 16\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_type_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = many\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("use_ir = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_in_file_fails_at_parse(self, tmp_path, raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"clip_norm = {raw}\n")
        with pytest.raises(ConfigError, match="clip_norm"):
            parse_config(path)

    def test_invalid_downstream_constraint_fails_at_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ase_kind = rotation\nstruct_dim = 7\n")
        with pytest.raises(ConfigError, match="even"):
            parse_config(path)
