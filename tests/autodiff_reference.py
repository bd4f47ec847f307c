"""Tape primitives that only the reference paths in ``tests/`` run.

The fused ``attention``, ``paired_rotation`` and batched loss replaced
the compositions that needed these, so ``structkgc.autodiff`` no longer
carries them: ``text_reference`` joins heads with ``concat_rows`` and
weights them with ``softmax_rows``, ``rotation_reference`` views phase
pairs through ``reshape`` and stacks real and imaginary parts with
``concat_rows``, and ``loss_reference`` stacks per-query sums with
``concat_rows``.  Each has a hand-written VJP that
``test_autodiff_reference`` checks against finite differences.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from structkgc.autodiff import Node


def reshape(a: Node, rows: int, cols: int) -> Node:
    if rows * cols != a.value.size:
        raise ValueError(f"cannot reshape {a.value.shape} to ({rows}, {cols})")
    shape = a.value.shape
    return Node(a.value.reshape(rows, cols), (a,), lambda g: (g.reshape(shape),))


def concat_rows(parts: Sequence[Node]) -> Node:
    parts = list(parts)
    if not parts:
        raise ValueError("concat_rows needs at least one part")
    widths = {p.value.shape[1] for p in parts}
    if len(widths) != 1:
        raise ValueError(f"concat_rows column mismatch: {sorted(widths)}")
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return Node(np.concatenate([p.value for p in parts], axis=0), parts, vjp)


def softmax_rows(a: Node) -> Node:
    """Row softmax with max-subtraction; every output row sums to 1."""
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return ((g - (g * y).sum(axis=1, keepdims=True)) * y,)

    return Node(y, (a,), vjp)
