import struct
import zlib
from dataclasses import fields

import numpy as np
import pytest

from structkgc import structural, text
from structkgc.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from structkgc.model import Model, ModelConfig
from structkgc.structural import AseKind

import checkpoint_reference


def small_model(seed=0, **kw):
    defaults = dict(
        num_entities=7, num_base_relations=2, struct_dim=6, layers=1,
        hidden_dim=8, heads=2, max_len=10, vocab_size=15,
        ase_kind=AseKind.HADAMARD,
    )
    defaults.update(kw)
    return Model(ModelConfig(**defaults), seed=seed)


class TestRoundTrip:
    def test_bit_exact_parameters(self, tmp_path):
        model = small_model(seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_model(path)
        for name, node in model.parameters().items():
            other = loaded.parameters()[name]
            assert np.abs(node.value - other.value).max() == 0.0
        assert loaded.config == model.config

    def test_struct_only_round_trip(self, tmp_path):
        model = small_model(use_text=False, vocab_size=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_model(path)
        assert loaded.hr_encoder is None
        assert set(loaded.parameters()) == set(model.parameters())

    def test_identical_saves_are_byte_identical(self, tmp_path):
        model = small_model(seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()


    # between them these two give every ModelConfig field a value other
    # than its default, so a field the header does not store fails here
    EVERY_FIELD_CONFIGS = (
        dict(num_entities=7, num_base_relations=3, struct_dim=6,
             ase_kind=AseKind.ROTATION, use_text=False, tau_init=0.07),
        dict(num_entities=5, num_base_relations=2, struct_dim=4, layers=1, hidden_dim=8,
             heads=2, max_len=10, vocab_size=15, ase_kind=AseKind.HADAMARD, use_ase=False),
    )

    def test_every_config_field_round_trips(self, tmp_path):
        set_fields = set()
        for i, kw in enumerate(self.EVERY_FIELD_CONFIGS):
            config = ModelConfig(**kw)
            set_fields |= {f.name for f in fields(ModelConfig)
                           if getattr(config, f.name) != f.default}
            path = tmp_path / f"{i}.ckpt"
            save_checkpoint(path, Model(config, seed=i))
            assert load_checkpoint(path)[0] == config
        assert set_fields == {f.name for f in fields(ModelConfig)}


class TestParameterOrder:
    def test_two_text_encoders_in_a_fixed_order(self):
        """The query and tail encoders are separate objects with the same
        layout, and the saved order is struct, prefixes, hr, tail, tau."""
        model = small_model()
        names = list(model.parameters())
        groups = list(dict.fromkeys(name.split(".")[0] for name in names))
        assert groups == ["struct", "hr_prefix", "tail_prefix", "hr", "tail", "log_tau"]
        hr = [name.removeprefix("hr.") for name in names if name.startswith("hr.")]
        tail = [name.removeprefix("tail.") for name in names if name.startswith("tail.")]
        assert hr == tail
        assert model.hr_encoder is not model.tail_encoder


class TestCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            load_checkpoint(path)

    def test_flipped_byte_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        # fix the checksum so only the magic is wrong
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)


class TestDimChecks:
    def test_mismatch_names_both_values(self, tmp_path):
        model = small_model(hidden_dim=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(CheckpointError, match="hidden_dim=8.*hidden_dim=32"):
            load_model(path, expected_dims={"hidden_dim": 32})

    def test_matching_dims_accepted(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_model(path, expected_dims={"num_entities": 7, "hidden_dim": 8})
        assert loaded.config.num_entities == 7


def restamped(body: bytes) -> bytes:
    """``body`` followed by its own valid CRC32, so only the tampering shows."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def saved_body(tmp_path, **kw) -> tuple:
    """A saved small model's path and its bytes without the CRC."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_model(**kw))
    return path, bytearray(path.read_bytes()[:-4])


class TestRefusalsWithValidChecksum:
    def test_unknown_combiner_code(self, tmp_path):
        path, body = saved_body(tmp_path)
        body[8 + 32] = 9  # the combiner byte follows magic, version and 8 u32 fields
        path.write_bytes(restamped(bytes(body)))
        with pytest.raises(CheckpointError, match="unknown combiner code 9"):
            load_checkpoint(path)

    def test_shared_text_encoder_byte(self, tmp_path):
        path, body = saved_body(tmp_path)
        assert body[8 + 33] == 0  # written as 0 by every save
        body[8 + 33] = 1
        path.write_bytes(restamped(bytes(body)))
        with pytest.raises(CheckpointError, match="share_text_encoders=1 is not supported"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path, body = saved_body(tmp_path)
        path.write_bytes(restamped(bytes(body) + b"\0" * 8))
        with pytest.raises(CheckpointError, match="trailing bytes after parameter blocks"):
            load_checkpoint(path)

    def test_truncated_block(self, tmp_path):
        path, body = saved_body(tmp_path)
        path.write_bytes(restamped(bytes(body[:-8])))
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_parameter_name_mismatch(self, tmp_path):
        path, body = saved_body(tmp_path)
        at = body.find(b"log_tau")
        body[at:at + 7] = b"log_tax"
        path.write_bytes(restamped(bytes(body)))
        load_checkpoint(path)  # the file itself is well formed
        with pytest.raises(CheckpointError,
                           match=r"parameter name mismatch near \['log_tau', 'log_tax'\]"):
            load_model(path)

    def test_parameter_shape_mismatch(self, tmp_path):
        path, body = saved_body(tmp_path)
        name = b"struct.entities"
        at = body.find(name) + len(name)
        assert struct.unpack_from("<II", body, at) == (7, 6)
        struct.pack_into("<II", body, at, 6, 7)  # same byte count, other shape
        path.write_bytes(restamped(bytes(body)))
        with pytest.raises(CheckpointError, match=r"parameter struct\.entities has "
                                                  r"shape \(6, 7\), expected \(7, 6\)"):
            load_model(path)


MODEL_KINDS = {
    "struct_only": dict(use_text=False, vocab_size=0),
    "text": dict(),
    "text_no_ase": dict(use_ase=False),
}


@pytest.mark.parametrize("kw", MODEL_KINDS.values(), ids=MODEL_KINDS.keys())
class TestLoadBuildsFromTheStoredArrays:
    def test_draws_no_random_numbers(self, tmp_path, monkeypatch, kw):
        model = small_model(seed=5, **kw)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)

        def no_draw(*args, **kwargs):
            raise AssertionError("loading a checkpoint ran a random init")

        monkeypatch.setattr(structural, "init_embedding", no_draw)
        monkeypatch.setattr(text, "_linear_init", no_draw)
        loaded = load_model(path)
        with pytest.raises(AssertionError, match="random init"):
            Model(model.config, seed=5)  # the patch does reach a fresh build
        assert loaded.config == model.config
        for name, node in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].value, node.value)

    def test_parameters_are_writable_contiguous_and_own_their_memory(self, tmp_path, kw):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_model(**kw))
        for name, node in load_model(path).parameters().items():
            value = node.value
            assert value.dtype == np.float64, name
            assert value.flags.writeable, name
            assert value.flags.c_contiguous, name
            assert value.flags.owndata and value.base is None, name


SAVE_KINDS = {**MODEL_KINDS, **{kind.value: dict(ase_kind=kind) for kind in AseKind}}


class TestStreamingSave:
    @pytest.mark.parametrize("kw", SAVE_KINDS.values(), ids=SAVE_KINDS.keys())
    def test_same_bytes_as_the_in_memory_writer(self, tmp_path, kw):
        model = small_model(seed=6, **kw)
        save_checkpoint(tmp_path / "stream.ckpt", model)
        checkpoint_reference.save_checkpoint(tmp_path / "memory.ckpt", model)
        assert ((tmp_path / "stream.ckpt").read_bytes()
                == (tmp_path / "memory.ckpt").read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.ckpt", "stream.ckpt"]

    def test_a_fortran_ordered_value_is_written_in_c_order(self, tmp_path):
        model = small_model(seed=6)
        node = model.struct.entity_embeddings
        node.value = np.asfortranarray(node.value)
        save_checkpoint(tmp_path / "stream.ckpt", model)
        checkpoint_reference.save_checkpoint(tmp_path / "memory.ckpt", model)
        assert ((tmp_path / "stream.ckpt").read_bytes()
                == (tmp_path / "memory.ckpt").read_bytes())

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_a_failed_save_leaves_the_old_file_as_it_was(self, tmp_path, at):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_model(seed=1))
        old = path.read_bytes()
        model = small_model(seed=2)
        names = list(model.parameters())
        name = {"first": names[0], "middle": names[len(names) // 2],
                "last": names[-1]}[at]
        # the block cannot be converted to float64, after the blocks before
        # it are written
        model.parameters()[name].value = np.array([["x"]], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, model)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_a_failed_first_save_leaves_no_file(self, tmp_path):
        model = small_model()
        model.log_tau.value = np.array([["x"]], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.ckpt", model)
        assert list(tmp_path.iterdir()) == []
