"""Central finite-difference oracle shared by the gradient tests.

The oracle never touches the reverse-mode code path: it re-evaluates the
forward function at perturbed inputs only.  The reverse-mode side runs
through ``autodiff_reference.checked_backward``, so every case also pins
the leaf-only backward to the every-node reference loop.
"""

import numpy as np

from structkgc import autodiff as ad

from autodiff_reference import checked_backward


def numeric_gradients(f, arrays, eps=1e-5):
    """Central-difference gradients of ``f`` w.r.t. each input array.

    ``f`` maps a list of plain numpy arrays to a python float and is
    treated as a black box.
    """
    grads = []
    work = [np.array(a, dtype=np.float64) for a in arrays]
    for ai, a in enumerate(work):
        g = np.zeros_like(a)
        flat = a.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(work)
            flat[i] = orig - eps
            down = f(work)
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_gradients_match(build, arrays, eps=1e-5, rtol=1e-4):
    """Compare reverse-mode gradients of ``build`` against the FD oracle.

    ``build`` maps a list of leaf Nodes to a scalar Node.  The relative
    error criterion is |a - n| <= rtol * max(1, |a|, |n|) per coordinate.
    """
    leaves = [ad.Node(a) for a in arrays]
    out = build(leaves)
    assert out.value.size == 1, "gradient check target must be scalar"
    checked_backward(out)
    analytic = [
        leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        for leaf in leaves
    ]

    def forward(ws):
        return float(build([ad.Node(w) for w in ws]).value[0, 0])

    numeric = numeric_gradients(forward, [leaf.value for leaf in leaves], eps=eps)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.abs(a - n) / denom
        assert err.max() <= rtol, f"gradient mismatch: max rel err {err.max():.3e}"


def random_weighting(rng, shape):
    """Random constant used to turn a matrix output into a scalar target."""
    return rng.uniform(-1.0, 1.0, size=shape)
