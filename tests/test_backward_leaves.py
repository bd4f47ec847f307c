"""The leaf-only backward against the every-node reference loop.

``checked_backward`` runs both on one graph and compares each leaf's
gradient by its bytes; these graphs add what the primitive tests do not
reach on purpose: random DAGs with repeated parents and shared leaves,
constants computed under ``no_grad``, a recorded node with no VJP, and
repeated passes that accumulate.
"""

import numpy as np
import pytest

from structkgc import autodiff as ad

from autodiff_reference import add_const, checked_backward, exp, gelu, sub, sum_all

N = 4  # every node is (N, N), so any two combine

BINARY = {
    "add": ad.add,
    "sub": sub,
    "mul": ad.mul,
    "matmul": ad.matmul,
}
UNARY = {
    "smul": lambda a: ad.smul(a, -0.7),
    "add_const": lambda a: add_const(a, 0.3),
    "gelu": gelu,
    "l2_normalize_rows": ad.l2_normalize_rows,
    "transpose": ad.transpose,
    "gather_rows": lambda a: ad.gather_rows(a, [0, 2, 2, 1]),
}


def random_dag(rng, n_leaves=4, n_ops=14):
    """A scalar root over a random DAG and the list of its nodes.

    Operands are drawn with replacement from every node built so far, so
    a node can be both parents of one op (``mul(a, a)``) and feed several
    consumers; one in three leaves is a ``no_grad`` product of two other
    leaves, which has no parents and no VJP.
    """
    nodes = [ad.Node(rng.normal(scale=0.5, size=(N, N))) for _ in range(n_leaves)]
    for i in range(n_leaves):
        if rng.random() < 1 / 3:
            with ad.no_grad():
                nodes.append(ad.mul(nodes[i], nodes[(i + 1) % n_leaves]))
    for _ in range(n_ops):
        if rng.random() < 0.6:
            name = rng.choice(sorted(BINARY))
            a, b = (nodes[int(k)] for k in rng.integers(len(nodes), size=2))
            nodes.append(BINARY[name](a, b))
        else:
            name = rng.choice(sorted(UNARY))
            nodes.append(UNARY[name](nodes[int(rng.integers(len(nodes)))]))
    # the last node plus a few earlier ones, so several paths meet at the root
    picks = [nodes[-1]] + [nodes[int(k)] for k in rng.integers(len(nodes), size=3)]
    total = picks[0]
    for node in picks[1:]:
        total = ad.add(total, node)
    root = sum_all(ad.mul(total, ad.Node(rng.uniform(-1, 1, size=(N, N)))))
    return root, nodes


@pytest.mark.parametrize("seed", range(30))
def test_random_dag_leaf_grads_match_the_reference(seed):
    root, _ = random_dag(np.random.default_rng(seed))
    checked_backward(root)


@pytest.mark.parametrize("seed", range(5))
def test_repeated_backward_accumulates_the_same_bytes(seed):
    root, _ = random_dag(np.random.default_rng(100 + seed))
    checked_backward(root)
    checked_backward(root)
    leaves = [node for node in ad._toposort(root) if not node._parents]
    assert any(node.grad is not None for node in leaves)


def test_repeated_parent_and_shared_leaf():
    a = ad.Node([[1.5, -2.0]])
    b = ad.Node([[0.5, 3.0]])
    squared = ad.mul(a, a)
    root = sum_all(ad.add(ad.mul(squared, b), ad.mul(a, b)))
    checked_backward(root)
    # d/da (a^2 b + a b) = 2ab + b; d/db = a^2 + a
    np.testing.assert_array_equal(a.grad, 2 * a.value * b.value + b.value)
    np.testing.assert_array_equal(b.grad, a.value * a.value + a.value)
    assert squared.grad is None and root.grad is None


def test_a_no_grad_constant_is_a_leaf_that_gets_a_gradient():
    x = ad.Node([[0.25, -1.0]])
    with ad.no_grad():
        c = exp(x)
    assert c._parents == () and c._vjp is None
    y = ad.mul(c, x)
    checked_backward(sum_all(y))
    # only the recorded path reaches x; the constant keeps its own grad
    np.testing.assert_array_equal(x.grad, c.value)
    np.testing.assert_array_equal(c.grad, x.value)
    assert y.grad is None


def test_a_recorded_node_without_a_vjp_stops_the_gradient():
    x = ad.Node([[2.0, 3.0]])
    stopped = ad.Node(x.value * 2.0, (x,), None)
    w = ad.Node([[1.0, -1.0]])
    checked_backward(sum_all(ad.mul(stopped, w)))
    assert x.grad is None and stopped.grad is None
    np.testing.assert_array_equal(w.grad, stopped.value)


def test_a_leaf_root_gets_a_unit_gradient():
    x = ad.Node([[4.0]])
    checked_backward(x)
    assert x.grad.tobytes() == np.ones((1, 1)).tobytes()


def test_interior_nodes_keep_no_gradient():
    x = ad.Node(np.arange(6.0).reshape(2, 3))
    h = ad.l2_normalize_rows(gelu(ad.smul(x, 0.5)))
    loss = sum_all(ad.mul(h, h))
    ad.backward(loss)
    order = ad._toposort(loss)
    assert [node.grad is None for node in order if node._parents] == [True] * 5
    assert x.grad is not None
