"""Tape primitives that only the reference paths in ``tests/`` run.

The fused ``attention``, ``paired_rotation`` and batched loss replaced
the compositions that needed these, so ``structkgc.autodiff`` no longer
carries them: ``text_reference`` joins heads with ``concat_rows`` and
weights them with ``softmax_rows``, ``rotation_reference`` views phase
pairs through ``reshape`` and stacks real and imaginary parts with
``concat_rows``, and ``loss_reference`` stacks per-query sums with
``concat_rows``.  Each has a hand-written VJP that
``test_autodiff_reference`` checks against finite differences.

``backward`` is the backward loop as it was when every node of the tape
kept a ``grad``; ``checked_backward`` runs it beside
``structkgc.autodiff.backward`` on the same graph and asserts that every
leaf gets the same gradient bytes and no interior node a gradient.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from structkgc import autodiff as ad
from structkgc.autodiff import Node

_leaf_backward = ad.backward


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


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every reachable node,
    interior nodes included."""
    if root.value.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    order = ad._toposort(root)
    pending: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def checked_backward(root: Node) -> None:
    """``structkgc.autodiff.backward``, checked against :func:`backward`.

    The reference runs first from the leaves' current grads; those grads
    are then put back, interior grads cleared, and the leaf-only pass
    runs.  Leaf grads must match byte for byte, interior grads stay None.
    """
    order = ad._toposort(root)
    leaves = [node for node in order if not node._parents]
    interior = [node for node in order if node._parents]
    assert all(node.grad is None for node in interior)
    before = [node.grad for node in leaves]
    backward(root)
    expected = [node.grad for node in leaves]
    for node, grad in zip(leaves, before):
        node.grad = grad
    for node in interior:
        node.grad = None
    _leaf_backward(root)
    for node, want in zip(leaves, expected):
        assert (node.grad is None) == (want is None)
        if want is not None:
            assert node.grad.shape == want.shape
            assert node.grad.tobytes() == want.tobytes()
    assert all(node.grad is None for node in interior)
