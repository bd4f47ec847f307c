"""Versioned binary checkpoints with byte-exact round trips.

Layout: magic ``SKGC``, a u32 format version, fixed-width header fields
(vocabulary sizes, encoder dims, combiner kind, a reserved byte that is
always 0 and keeps the version-1 layout, component switches), then the
named parameter blocks as little-endian float64 in the model's fixed
parameter order, and a trailing CRC32 of everything before it.
Saves stream each block from its array into a file beside the target
and move it over the target once complete.  Loads refuse to proceed on
any checksum, version or dimension mismatch.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

from . import autodiff as ad
from .model import Model, ModelConfig
from .structural import AseKind

MAGIC = b"SKGC"
VERSION = 1

_ASE_CODES = {AseKind.ADDITIVE: 0, AseKind.HADAMARD: 1, AseKind.ROTATION: 2}
_ASE_FROM_CODE = {v: k for k, v in _ASE_CODES.items()}
# The header: the ModelConfig dimensions below as u32s in this order, then
# the combiner code, the reserved byte, use_text, use_ase and tau_init.
_DIMS = ("num_entities", "num_base_relations", "struct_dim", "layers",
         "hidden_dim", "heads", "max_len", "vocab_size")
_HEADER = struct.Struct(f"<{len(_DIMS)}I4Bd")


class CheckpointError(ValueError):
    pass


def _header_bytes(cfg: ModelConfig) -> bytes:
    return _HEADER.pack(*(getattr(cfg, name) for name in _DIMS), _ASE_CODES[cfg.ase_kind],
                        0, int(cfg.use_text), int(cfg.use_ase), cfg.tau_init)


def _chunks(model: Model):
    """The file's bytes before the CRC, in order: the header, then per
    parameter its name and shape, then its block as an array."""
    params = model.parameters()
    yield (MAGIC + struct.pack("<I", VERSION) + _header_bytes(model.config)
           + struct.pack("<I", len(params)))
    for name, node in params.items():
        encoded = name.encode("utf-8")
        rows, cols = node.value.shape
        yield struct.pack("<H", len(encoded)) + encoded + struct.pack("<II", rows, cols)
        yield np.ascontiguousarray(node.value, dtype="<f8")


def save_checkpoint(path, model: Model):
    """Write ``model`` to ``path``, streaming each parameter block from its
    array with a running CRC.  The file is written beside ``path`` and
    moved over it once complete, so a failed save leaves an existing file
    as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for chunk in _chunks(model):
                crc = zlib.crc32(chunk, crc)
                f.write(chunk)
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read(buf: memoryview, offset: int, size: int, path) -> tuple[memoryview, int]:
    if offset + size > len(buf):
        raise CheckpointError(f"{path}: truncated checkpoint")
    return buf[offset:offset + size], offset + size


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The checkpoint's config and its parameter blocks, each copied once
    out of the file's bytes into a writable array of its own."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated checkpoint")
    buf = memoryview(raw)[:-4]
    (stored_crc,) = struct.unpack_from("<I", raw, len(buf))
    if zlib.crc32(buf) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, refusing to load")
    offset = 0
    chunk, offset = _read(buf, offset, 4, path)
    if chunk != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    chunk, offset = _read(buf, offset, 4, path)
    (version,) = struct.unpack("<I", chunk)
    if version != VERSION:
        raise CheckpointError(
            f"{path}: format version {version} not supported (expected {VERSION})"
        )
    chunk, offset = _read(buf, offset, _HEADER.size, path)
    *dims, ase_code, share, use_text, use_ase, tau_init = _HEADER.unpack(chunk)
    if ase_code not in _ASE_FROM_CODE:
        raise CheckpointError(f"{path}: unknown combiner code {ase_code}")
    if share:
        raise CheckpointError(
            f"{path}: share_text_encoders={share} is not supported; the query and "
            f"tail text encoders are always separate")
    cfg = ModelConfig(**dict(zip(_DIMS, dims)), ase_kind=_ASE_FROM_CODE[ase_code],
                      use_text=bool(use_text), use_ase=bool(use_ase), tau_init=tau_init)
    chunk, offset = _read(buf, offset, 4, path)
    (count,) = struct.unpack("<I", chunk)
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        chunk, offset = _read(buf, offset, 2, path)
        (name_len,) = struct.unpack("<H", chunk)
        chunk, offset = _read(buf, offset, name_len, path)
        name = str(chunk, "utf-8")
        chunk, offset = _read(buf, offset, 8, path)
        rows, cols = struct.unpack("<II", chunk)
        chunk, offset = _read(buf, offset, rows * cols * 8, path)
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols).copy()
    if offset != len(buf):
        raise CheckpointError(f"{path}: trailing bytes after parameter blocks")
    return cfg, params


def load_model(path, expected_dims: dict | None = None) -> Model:
    """Rebuild a model from a checkpoint, its parameters the stored arrays.

    ``expected_dims`` maps ModelConfig field names to required values;
    any mismatch refuses the load and names both values.  So does a
    stored parameter set that differs from the model's, by name or by
    shape.
    """
    cfg, params = load_checkpoint(path)
    if expected_dims:
        for key, want in expected_dims.items():
            have = getattr(cfg, key)
            if have != want:
                raise CheckpointError(
                    f"{path}: checkpoint {key}={have} does not match "
                    f"requested {key}={want}"
                )
    loaded = ad.LoadedValues(params)
    model = Model(cfg, loaded=loaded)
    expected = loaded.expected
    if set(expected) != set(params):
        missing = sorted(set(expected) ^ set(params))
        raise CheckpointError(f"{path}: parameter name mismatch near {missing[:4]}")
    for name in model.parameters():
        if params[name].shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {params[name].shape}, "
                f"expected {expected[name]}"
            )
    return model
