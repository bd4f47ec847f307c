"""``save_checkpoint`` as it was before it streamed: the whole payload
built in memory, one ``tobytes()`` per block, and the CRC over a copy.
The streaming writer must produce the same file bytes.

The version-1 header is packed here from its own field list, not by the
module under test, so the layout is pinned independently of it."""

from __future__ import annotations

import struct
import zlib

import numpy as np

# magic, u32 version; then eight u32, four u8 and one f64
MAGIC = b"SKGC"
VERSION = 1
HEADER_FORMAT = "<8I4Bd"
COMBINER_CODES = {"additive": 0, "hadamard": 1, "rotation": 2}


def header_bytes(cfg) -> bytes:
    return struct.pack(
        HEADER_FORMAT,
        cfg.num_entities, cfg.num_base_relations, cfg.struct_dim, cfg.layers,
        cfg.hidden_dim, cfg.heads, cfg.max_len, cfg.vocab_size,
        COMBINER_CODES[cfg.ase_kind.value],
        0,  # reserved: the query and tail text encoders are never shared
        int(cfg.use_text), int(cfg.use_ase),
        cfg.tau_init,
    )


def save_checkpoint(path, model):
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<I", VERSION)
    payload += header_bytes(model.config)
    params = model.parameters()
    payload += struct.pack("<I", len(params))
    for name, node in params.items():
        encoded = name.encode("utf-8")
        rows, cols = node.value.shape
        payload += struct.pack("<H", len(encoded))
        payload += encoded
        payload += struct.pack("<II", rows, cols)
        payload += np.ascontiguousarray(node.value, dtype="<f8").tobytes()
    payload += struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        f.write(payload)
