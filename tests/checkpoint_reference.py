"""``save_checkpoint`` as it was before it streamed: the whole payload
built in memory, one ``tobytes()`` per block, and the CRC over a copy.
The streaming writer must produce the same file bytes."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from structkgc.checkpoint import MAGIC, VERSION, _header_bytes


def save_checkpoint(path, model):
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<I", VERSION)
    payload += _header_bytes(model.config)
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
