"""
Reverse-mode differentiation on the float64 tape
================================================

Build a small expression graph, run backward, and confirm the gradients
against central finite differences computed by hand.
"""

import numpy as np

from structkgc import autodiff as ad

rng = np.random.default_rng(0)


def total(a: ad.Node) -> ad.Node:
    """The sum of every entry as a (1, 1) node.  A primitive is a value,
    its parents and a vector-Jacobian callback that maps the output's
    gradient to one gradient per parent."""
    shape = a.value.shape
    return ad.Node(a.value.sum().reshape(1, 1), (a,),
                   lambda g: (np.broadcast_to(g, shape).copy(),))


# d/dx sum(x * x) = 2x
x = ad.Node([[1.0, 2.0, -3.0]])
loss = total(ad.mul(x, x))
ad.backward(loss)
print("value:", loss.value[0, 0])
print("grad :", x.grad, "(expected 2x)")

# a two-consumer (diamond) graph: gradients sum over both paths
y = ad.Node([[0.5, -0.25]])
out = total(ad.add(ad.smul(y, 3.0), ad.mul(y, y)))
ad.backward(out)
print("\ndiamond grad:", y.grad, "(expected 3 + 2y =", 3.0 + 2 * y.value, ")")

# unit-length rows, as the encoders and the structural scores use them;
# the gradient of a unit row is orthogonal to it, so its length cannot move
r = ad.Node([[3.0, 4.0]])
u = ad.l2_normalize_rows(r)
ad.backward(total(ad.mul(u, ad.Node([[1.0, 0.0]]))))
print("\nl2-normalised [3, 4]:", u.value, " grad:", r.grad)
print(f"grad . row: {float((r.grad * r.value).sum()):.1e} (zero up to rounding)")

# a quick finite-difference spot check on matmul
a = ad.Node(rng.normal(size=(3, 4)))
b = ad.Node(rng.normal(size=(4, 2)))
loss = total(ad.matmul(a, b))
ad.backward(loss)
eps = 1e-5
i, j = 1, 2
perturbed = a.value.copy()
perturbed[i, j] += eps
up = (perturbed @ b.value).sum()
perturbed[i, j] -= 2 * eps
down = (perturbed @ b.value).sum()
numeric = (up - down) / (2 * eps)
print(f"\nmatmul dA[{i},{j}]: analytic {a.grad[i, j]:.8f}  numeric {numeric:.8f}")
