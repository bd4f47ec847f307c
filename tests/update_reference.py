"""Out-of-place parameter updates, as they were before the in-place ones.

``adamw_step`` is ``AdamW.step`` with every moment, bias correction and
update built as a new array, and ``ema_update`` is
``MomentumEncoder.ema_update`` with a new array per shadow.  The tests
pin the in-place bodies to these byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from structkgc.optim import BETA1, BETA2, EPS, AdamW, NonFiniteGradientError


def adamw_step(opt: AdamW) -> float:
    grads = {}
    sq_norm = 0.0
    for name, p in opt.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        grads[name] = g
        sq_norm += float((g * g).sum())
        if not math.isfinite(sq_norm):
            raise NonFiniteGradientError(name)
    norm = np.sqrt(sq_norm)
    scale = 1.0
    if opt.clip_norm > 0 and norm > opt.clip_norm:
        scale = opt.clip_norm / norm

    lr_t = opt.current_lr()
    opt.step_count += 1
    t = opt.step_count
    for name, p in opt.params.items():
        g = grads[name] * scale
        m = opt._m[name] = BETA1 * opt._m[name] + (1 - BETA1) * g
        v = opt._v[name] = BETA2 * opt._v[name] + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        update = m_hat / (np.sqrt(v_hat) + EPS)
        if opt.weight_decay and opt._decays(p):
            update = update + opt.weight_decay * p.value
        p.value = p.value - lr_t * update
        p.grad = None
    return float(norm)


def ema_update(encoder) -> None:
    m = encoder.momentum
    for shadow, online in encoder._pairs:
        shadow.value = m * shadow.value + (1.0 - m) * online.value
