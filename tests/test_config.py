import pytest

from structkgc.config import (
    LR_GRID,
    PAPER_FULL_SCALE,
    ConfigError,
    RunConfig,
    parse_config,
)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.tau_init == 0.05
        assert cfg.margin == 0.02
        assert cfg.ir_count == 3

    def test_full_scale_constants_documented(self):
        assert PAPER_FULL_SCALE["queue_capacity"] == 15360
        assert PAPER_FULL_SCALE["hardest_k"] == 192
        assert PAPER_FULL_SCALE["ir_count"] == 3
        assert PAPER_FULL_SCALE["batch_size"] == 768
        assert LR_GRID == (5e-4, 5e-5, 1e-5)

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

    def test_invalid_downstream_constraint_fails_at_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ase_kind = rotation\nstruct_dim = 7\n")
        with pytest.raises(ConfigError, match="even"):
            parse_config(path)
