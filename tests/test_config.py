import math
import os
import pickle
import re
import sys
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
    use_mh=False, use_ir=False, tau_init=0.1,
    tau_min=0.02, tau_max=0.5, margin=0.05, beta=0.25, queue_capacity=64,
    hardest_k=8, mh_count=16, ir_count=2, momentum=0.99, lr=1e-3,
    weight_decay=0.05, clip_norm=2.0, epochs=4, batch_size=16, seed=7,
)
NON_DEFAULT_VARIANTS = [{"use_text": False}, {"use_ase": False}]
DATA_DERIVED = {"num_entities", "num_base_relations", "vocab_size"}
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


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
            {"use_ir": True, "use_text": False, "use_mh": False},
            {"use_text": False, "use_ase": False, "use_mh": False},
            {"min_token_freq": 0},
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": -1e-4},
            {"momentum": 1.5},
            {"queue_capacity": 0},
            {"queue_capacity": 1},
            {"hardest_k": 1},
            {"ir_count": -2},
            {"ir_count": 0},
            {"weight_decay": -0.01},
            {"clip_norm": -1.0},
            {"seed": -1},
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

    @pytest.mark.parametrize("switches,terms", [
        ({}, 32 + 64 + 3),
        ({"use_ir": False}, 32 + 64),
        ({"use_mh": False, "use_ir": False}, 32),
    ])
    def test_a_tau_min_whose_loss_overflows_is_refused_naming_the_floor(self, switches,
                                                                        terms):
        # a row sums `terms` values of up to e^(1/tau), which passes float64's
        # maximum below tau = 1 / (ln max - ln terms)
        floor = 1.0 / (math.log(sys.float_info.max) - math.log(terms))
        below = floor * (1 - 1e-9)
        with pytest.raises(ConfigError, match=f"^tau_min must be at least {floor:.6g} "
                                              f"for {terms} terms per loss row"):
            RunConfig(tau_init=below, tau_min=below, **switches)
        assert RunConfig(tau_init=floor, tau_min=floor, **switches).tau_min == floor

    @pytest.mark.parametrize("key", ["weight_decay", "clip_norm"])
    def test_negative_float_rejected_naming_the_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be non-negative"):
            RunConfig(**{key: -0.5})

    @pytest.mark.parametrize("key", ["use_mh", "use_ir"])
    def test_text_negatives_without_the_text_path_name_the_switch(self, key):
        switches = {"use_mh": False, "use_ir": False, key: True}
        with pytest.raises(ConfigError, match=f"^{key} needs the text path"):
            RunConfig(use_text=False, **switches)

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

    def test_keys_are_the_component_fields(self):
        """``dataset`` and ``min_token_freq``, then the fields of
        ``ModelConfig`` and ``TrainConfig`` the dataset does not decide."""
        component_keys = [f.name for c in (ModelConfig, TrainConfig) for f in fields(c)
                          if f.name not in DATA_DERIVED]
        assert [f.name for f in fields(RunConfig)] == [
            "dataset", "min_token_freq", *component_keys]

    def test_ase_kind_parses_from_a_string(self):
        assert RunConfig(ase_kind="rotation").ase_kind is AseKind.ROTATION
        assert RunConfig().ase_kind is AseKind.ADDITIVE

    def test_pickles_under_its_module(self):
        cfg = RunConfig(**NON_DEFAULT)
        assert RunConfig.__module__ == "structkgc.config"
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_struct_only_config_valid(self):
        cfg = RunConfig(use_text=False, use_mh=False, use_ir=False)
        assert not cfg.use_text

    @pytest.mark.parametrize("key,value", [
        ("struct_dim", 0), ("hidden_dim", 0), ("heads", 0), ("layers", 0),
        ("struct_dim", -3), ("heads", -2),
    ])
    def test_a_size_below_one_is_refused_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be at least 1, got {value}$"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("max_len", [2, 0, -1])
    def test_max_len_below_a_query_template_is_refused(self, max_len):
        with pytest.raises(ConfigError, match=f"^max_len must be at least 3 .*got {max_len}$"):
            RunConfig(max_len=max_len)
        assert RunConfig(max_len=3).max_len == 3

    def test_the_struct_path_checks_only_its_own_size(self):
        struct_only = dict(use_text=False, use_mh=False, use_ir=False)
        RunConfig(**struct_only, hidden_dim=0, heads=0, layers=0, max_len=0)
        with pytest.raises(ConfigError, match="^struct_dim must be at least 1"):
            RunConfig(**struct_only, struct_dim=0)


class TestParseConfig:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# toy run\n"
            "dataset = data/toy\n"
            "struct_dim = 16\n"
            "use_mh = false\n"
            "beta = 0.25\n"
            "seed = 3\n"
            "\n"
        )
        cfg = parse_config(path, overrides={"seed": 9, "dataset": "data/other"})
        assert cfg.dataset == "data/other"
        assert cfg.struct_dim == 16
        assert cfg.use_mh is False
        assert cfg.beta == 0.25
        assert cfg.seed == 9

    def test_readme_block_lists_every_key_at_its_default(self, tmp_path):
        """The README's ``ini`` block, comments dropped, holds every
        ``RunConfig`` key once, in field order, at its default value."""
        with open(README, encoding="utf-8") as f:
            (block,) = re.findall(r"```ini\n(.*?)```", f.read(), flags=re.S)
        lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
        lines = [line for line in lines if line]
        assert [line.split("=", 1)[0].strip() for line in lines] == [
            f.name for f in fields(RunConfig)]
        path = tmp_path / "readme.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert parse_config(path) == RunConfig()

    def test_removed_shared_encoder_key_is_unknown(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("share_text_encoders = false\n")
        with pytest.raises(ConfigError, match="unknown key 'share_text_encoders'"):
            parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("struct_dims = 16\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_key_set_twice_names_the_second_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\n# again\n seed=3\nepochs=2\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:4: key 'epochs' is set twice"

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
