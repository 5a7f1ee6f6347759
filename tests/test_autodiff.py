import weakref

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank.errors import ShapeError

from oracles import (abs_, add, broadcast_to, concat, gather_rows, log2, matmul, mean_, mul, narrow, relu,
                     sigmoid, softplus, square, sum_, tanh, transpose)


def finite_diff(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = f(x)
        flat[j] = orig - eps
        down = f(x)
        flat[j] = orig
        grad.reshape(-1)[j] = (up - down) / (2 * eps)
    return grad


class TestPrimitiveValues:
    def test_tanh_at_zero(self):
        x = ad.parameter([0.0])
        y = sum_(tanh(x))
        assert y.item() == 0.0
        ad.backward(y)
        assert x.grad[0] == 1.0

    def test_no_implicit_tensor_broadcasting(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((3,)))
        with pytest.raises(ShapeError):
            add(a, b)

    def test_scalar_constants_are_allowed(self):
        a = ad.parameter([1.0, 2.0])
        y = sum_(mul(add(a, 1.0), 3.0))
        assert y.item() == pytest.approx(15.0)


class TestBackward:
    def test_quadratic(self):
        w = ad.parameter([1.0, 2.0])
        loss = sum_(mul(w, w))
        grads = ad.backward(loss)
        assert np.allclose(grads[w], [2.0, 4.0])

    def test_sigmoid_pre_activation_gradient(self):
        c = 3.0
        z = ad.parameter([0.0])
        loss = sum_(mul(sigmoid(z), c))
        ad.backward(loss)
        assert z.grad[0] == pytest.approx(0.25 * c, rel=1e-12)

    def test_only_leaves_keep_gradients(self):
        a = ad.parameter([1.0, 2.0])
        b = ad.parameter([3.0, 4.0])
        total = add(a, b)
        ad.backward(sum_(mul(total, total)))
        assert total.grad is None
        assert np.array_equal(a.grad, [8.0, 12.0]) and np.array_equal(b.grad, [8.0, 12.0])
        # a node's gradients become its parents' without a copy, so each must own its array
        assert not np.shares_memory(a.grad, b.grad)

    def test_fused_is_the_only_node_builder(self):
        """Every other public function builds no tape node: the benchmark's
        tracer counts as ops the public functions whose body calls _result."""
        builders = sorted(name for name, value in vars(ad).items()
                          if not name.startswith("_") and callable(value)
                          and getattr(value, "__module__", None) == ad.__name__
                          and "_result" in getattr(getattr(value, "__code__", None), "co_names", ()))
        assert builders == ["fused"]

    def test_second_backward_is_an_error(self):
        w = ad.parameter([1.0])
        loss = sum_(square(w))
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="backward already ran"):
            ad.backward(loss)

    def test_non_scalar_loss_rejected(self):
        w = ad.parameter([1.0, 2.0])
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(square(w))

    def test_walked_nodes_release_their_gradient_functions(self):
        """Once ``backward`` has taken a node's pairs the node keeps no
        gradient function, so the activations it held are freed while the
        node lives on, and a second walk through the node is an error."""
        x = ad.parameter([1.0, -2.0])
        activation = np.array([3.0, 0.5])
        kept = weakref.ref(activation)
        node = ad.fused("scale", x.data * activation, (x,), lambda g, a=activation: (g * a,))
        del activation
        inner = tanh(node)
        ad.backward(sum_(inner))
        assert node._grads is None and inner._grads is None and kept() is None
        assert np.allclose(x.grad, (1.0 - np.tanh(node.data) ** 2) * [3.0, 0.5], rtol=1e-14)
        with pytest.raises(RuntimeError, match="backward already ran through this node"):
            ad.backward(sum_(square(node)))

    def test_gradients_accumulate_across_losses(self):
        w = ad.parameter([1.0])
        ad.backward(sum_(square(w)))
        ad.backward(sum_(square(w)))
        assert w.grad[0] == pytest.approx(4.0)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 4))

        def build():
            w = ad.parameter(values.copy())
            h = tanh(matmul(w, transpose(w)))
            loss = mean_(square(h))
            ad.backward(loss)
            return w.grad.copy()

        assert np.array_equal(build(), build())


class TestShapeOps:
    def test_broadcast_gradient_sums(self):
        w = ad.parameter(np.array([[1.0], [2.0]]))
        y = sum_(broadcast_to(w, (2, 3)))
        ad.backward(y)
        assert np.allclose(w.grad, [[3.0], [3.0]])

    def test_concat_narrow_gather_roundtrip_gradients(self, rng):
        a = ad.parameter(rng.normal(size=(3, 2)))
        b = ad.parameter(rng.normal(size=(2, 2)))
        joined = concat([a, b], axis=0)
        part = narrow(joined, 0, 1, 3)
        picked = gather_rows(part, np.array([0, 0, 2]))
        loss = sum_(square(picked))
        ad.backward(loss)

        def scalar(av, bv):
            j = np.concatenate([av, bv], axis=0)
            p = j[1:4][np.array([0, 0, 2])]
            return float((p * p).sum())

        numeric_a = finite_diff(lambda v: scalar(v, b.data), a.data.copy())
        numeric_b = finite_diff(lambda v: scalar(a.data, v), b.data.copy())
        assert np.allclose(a.grad, numeric_a, atol=1e-7)
        assert np.allclose(b.grad, numeric_b, atol=1e-7)

    def test_axis_reductions(self, rng):
        x = ad.parameter(rng.normal(size=(3, 4)))
        loss = sum_(square(mean_(x, axis=1)))
        ad.backward(loss)
        numeric = finite_diff(lambda v: float((v.mean(axis=1) ** 2).sum()), x.data.copy())
        assert np.allclose(x.grad, numeric, atol=1e-7)


UNARY_OPS = {
    "tanh": (tanh, np.tanh, (-3, 3)),
    "sigmoid": (sigmoid, lambda x: 1 / (1 + np.exp(-x)), (-3, 3)),
    "softplus": (softplus, lambda x: np.logaddexp(0, x), (-3, 3)),
    "log2": (log2, np.log2, (0.1, 4)),
    "square": (square, np.square, (-3, 3)),
    "relu": (relu, lambda x: np.maximum(x, 0), (-3, 3)),
    "abs": (abs_, np.abs, (-3, 3)),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_gradients_match_finite_differences(name):
    """Every elementwise primitive vs central differences at 100 points."""
    op, ref, (lo, hi) = UNARY_OPS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    points = rng.uniform(lo, hi, size=100)
    if name in ("relu", "abs"):
        points = points[np.abs(points) > 1e-3]  # keep away from the kink
    x = ad.parameter(points)
    loss = sum_(op(x))
    ad.backward(loss)
    numeric = finite_diff(lambda v: float(ref(v).sum()), points.copy(), eps=1e-5)
    rel = np.abs(x.grad - numeric) / np.maximum(1.0, np.maximum(np.abs(x.grad), np.abs(numeric)))
    assert rel.max() <= 1e-6


def test_chain_composition_product_rule(rng):
    x = ad.parameter(rng.normal(size=(5,)))
    inner = tanh(x)
    outer = sum_(square(sigmoid(inner)))
    ad.backward(outer)
    s = 1 / (1 + np.exp(-np.tanh(x.data)))
    expected = 2 * s * (s * (1 - s)) * (1 - np.tanh(x.data) ** 2)
    assert np.allclose(x.grad, expected, rtol=1e-12)


class TestGradCheck:
    def test_quadratic_passes_tightly(self, rng):
        w = ad.parameter(rng.normal(size=(6,)))
        report = ad.grad_check(lambda: sum_(square(w)), [w], eps=1e-5, tol=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-6
        assert report.kinks == 0

    def test_constant_function_all_zero(self):
        w = ad.parameter([1.0, 2.0])
        report = ad.grad_check(lambda: ad.constant(5.0), [w], eps=1e-5, tol=1e-12)
        assert report.passed
        assert all(e.analytic == 0.0 and e.numeric == 0.0 for e in report.entries)

    def test_relu_kink_flagged_and_excluded(self):
        w = ad.parameter([0.0, 1.0])  # first coordinate sits on the kink
        report = ad.grad_check(lambda: sum_(relu(w)), [w], eps=1e-5, tol=1e-6)
        kinked = [e for e in report.entries if e.kink]
        assert len(kinked) == 1 and kinked[0].coord == 0
        assert report.passed

    def test_rejects_bad_eps_and_nonscalar(self):
        w = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="eps"):
            ad.grad_check(lambda: sum_(w), [w], eps=0.0)
        with pytest.raises(ShapeError, match="scalar"):
            ad.grad_check(lambda: square(w), [w])


def test_relu_propagates_nan_with_a_zero_mask():
    ad.set_debug(False)  # the finiteness check would stop the forward
    w = ad.parameter([np.nan, -1.0, 2.0])
    y = relu(w)
    assert np.isnan(y.data[0]) and y.data[1:].tolist() == [0.0, 2.0]
    ad.backward(sum_(y))
    assert w.grad.tolist() == [0.0, 0.0, 1.0]


def test_no_grad_blocks_recording():
    w = ad.parameter([1.0])
    with ad.no_grad():
        y = square(w)
    assert not y.requires_grad
    assert ad.backward(sum_(square(w))) is not None
