"""AdamW with decoupled weight decay, global-norm clipping and linear decay."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Node

BETA1, BETA2 = 0.9, 0.999   # moment decay rates
EPS = 1e-8                  # added to the second-moment root


class NonFiniteGradientError(FloatingPointError):
    """The gradient norm is not finite.

    ``param`` names the first parameter whose gradient holds NaN or
    infinity, or whose squares overflow the running norm.
    """

    def __init__(self, param: str):
        super().__init__(f"non-finite gradient in parameter {param!r}")
        self.param = param


def linear_decay(base_lr: float, total_steps: int, step: int) -> float:
    """Learning rate after ``step`` completed updates.

    Non-increasing; exactly zero from the final scheduled step onwards.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    return base_lr * max(0.0, (total_steps - step) / total_steps)


class AdamW:
    """Decoupled-weight-decay Adam over named parameter nodes.

    Row-vector parameters (biases, layer-norm gains, the log-temperature)
    are excluded from weight decay; matrices and embedding tables decay.

    Every step is dense, embedding tables included.  Decoupled weight
    decay and both moment decays move every row on every step, also rows
    a batch did not touch, so a step over touched rows only would change
    the update, not just its cost.
    """

    def __init__(self, params: dict[str, Node], lr: float, total_steps: int,
                 weight_decay: float = 0.01, clip_norm: float = 1.0):
        self.params = dict(params)
        self.lr = lr
        self.total_steps = total_steps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.value) for k, p in self.params.items()}

    def _decays(self, node: Node) -> bool:
        return node.value.shape[0] > 1

    def current_lr(self) -> float:
        return linear_decay(self.lr, self.total_steps, self.step_count)

    def step(self) -> float:
        """Apply one update from the parameters' ``grad`` and reset them.

        Returns the global gradient norm before clipping, sqrt of the sum
        of every squared gradient entry (a missing gradient counts as 0).
        """
        grads = {}
        sq_norm = 0.0
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            grads[name] = g
            sq_norm += float((g * g).sum())
            if not math.isfinite(sq_norm):
                # raised before any value or moment changes
                raise NonFiniteGradientError(name)
        norm = np.sqrt(sq_norm)
        scale = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            scale = self.clip_norm / norm

        lr_t = self.current_lr()
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            # the moments and the update are built in place, in the same
            # order of operations as their out-of-place formulas; the grad
            # may be shared with another leaf, so it is only read
            g = grads.pop(name)
            if scale != 1.0:
                g = g * scale
            m, v = self._m[name], self._v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            g_sq = (1 - BETA2) * g
            g_sq *= g
            v += g_sq
            del g, g_sq
            update = m / (1 - BETA1 ** t)
            root = v / (1 - BETA2 ** t)
            np.sqrt(root, out=root)
            root += EPS
            update /= root
            del root
            if self.weight_decay and self._decays(p):
                update += self.weight_decay * p.value
            update *= lr_t
            # a new array: callers may hold the old value
            p.value = p.value - update
            p.grad = None
        return float(norm)
