"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op records a backward closure on the implicit tape formed by parent
links; ``backward`` replays the tape in reverse topological order exactly
once per node. Design rules:

* double precision everywhere;
* no implicit broadcasting between tensors -- use :func:`broadcast_to`
  (scalar Python numbers are the one convenience exception);
* subgradient conventions: relu'(0) = 0, abs'(0) = 0.

Kinked ops (relu, abs, and fused blocks containing them) report their
active-branch masks to a trace when one is installed, which lets
:func:`grad_check` flag coordinates whose finite-difference stencil
straddles a nondifferentiable point.

Gradients are copied into ``.grad`` unless an op hands over an array it
has just allocated for one parent; ``backward`` releases the ``.grad`` of
each non-leaf node once that node's backward has run.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError

_LN2 = math.log(2.0)

_grad_enabled = True
_check_finite = False
_kink_trace: list[np.ndarray] | None = None


def set_debug(enabled: bool) -> None:
    """Toggle finiteness checks after every primitive (slow, used in tests)."""
    global _check_finite
    _check_finite = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Run forward passes without recording backward closures."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def _kink_tracing():
    global _kink_trace
    previous = _kink_trace
    _kink_trace = []
    try:
        yield _kink_trace
    finally:
        _kink_trace = previous


def _record_kink(mask: np.ndarray) -> None:
    if _kink_trace is not None:
        _kink_trace.append(mask)


class Tensor:
    """Dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``. ``owned`` lets the first gradient become
    ``t.grad`` without a copy; pass it only for a float64 array the op has
    just allocated and hands to no other parent."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _tensor_raw(data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    out._backward_done = False
    return out


def _result(op: str, data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericalError(f"{op} produced non-finite values")
    out = _tensor_raw(data)
    if _grad_enabled:
        grad_parents = tuple(p for p in parents if p.requires_grad)
        if grad_parents:
            out.requires_grad = True
            out._parents = grad_parents
            out._backward = backward_fn
    return out


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        k = float(b)

        def backward(g):
            _accum(a, g)

        return _result("add", a.data + k, (a,), backward)
    if isinstance(a, (int, float)):
        return add(b, a)
    _binary_shapes("add", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _result("add", a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return add(a, -float(b))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return add(neg(b), float(a))
    _binary_shapes("sub", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g, owned=True)

    return _result("sub", a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        k = float(b)

        def backward(g):
            _accum(a, g * k, owned=True)

        return _result("mul", a.data * k, (a,), backward)
    if isinstance(a, (int, float)):
        return mul(b, a)
    _binary_shapes("mul", a, b)

    def backward(g):
        _accum(a, g * b.data, owned=True)
        _accum(b, g * a.data, owned=True)

    return _result("mul", a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return mul(a, 1.0 / float(b))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        k = float(a)
        out_data = k / b.data

        def backward(g):
            _accum(b, -g * out_data / b.data, owned=True)

        return _result("div", out_data, (b,), backward)
    _binary_shapes("div", a, b)

    def backward(g):
        _accum(a, g / b.data, owned=True)
        _accum(b, -g * a.data / (b.data * b.data), owned=True)

    return _result("div", a.data / b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, -g, owned=True)

    return _result("neg", -a.data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.data.shape} and {b.data.shape} differ")

    def backward(g):
        _accum(a, g @ b.data.T, owned=True)
        _accum(b, a.data.T @ g, owned=True)

    return _result("matmul", a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.data.shape}")

    def backward(g):
        _accum(a, g.T)

    return _result("transpose", a.data.T, (a,), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - out_data * out_data), owned=True)

    return _result("tanh", out_data, (a,), backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


def sigmoid(a: Tensor) -> Tensor:
    out_data = _stable_sigmoid(a.data)

    def backward(g):
        _accum(a, g * out_data * (1.0 - out_data), owned=True)

    return _result("sigmoid", out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    _record_kink(mask)

    def backward(g):
        _accum(a, g * mask, owned=True)

    return _result("relu", np.where(mask, a.data, 0.0), (a,), backward)


def abs_(a: Tensor) -> Tensor:
    _record_kink(a.data > 0.0)
    sign = np.sign(a.data)

    def backward(g):
        _accum(a, g * sign, owned=True)

    return _result("abs", np.abs(a.data), (a,), backward)


def softplus(a: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accum(a, g * _stable_sigmoid(a.data), owned=True)

    return _result("softplus", out_data, (a,), backward)


def log2(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericalError("log2 of non-positive input")

    def backward(g):
        _accum(a, g / (a.data * _LN2), owned=True)

    return _result("log2", np.log2(a.data), (a,), backward)


def square(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g * 2.0 * a.data, owned=True)

    return _result("square", a.data * a.data, (a,), backward)


# ---------------------------------------------------------------------------
# shape & reduction ops


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _result("sum", out_data, (a,), backward)


def mean_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape) / count, owned=True)

    return _result("mean", out_data, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    parents = tuple(tensors)

    def backward(g):
        for t, start, stop in zip(parents, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            _accum(t, g[tuple(slicer)])

    return _result("concat", np.concatenate([t.data for t in tensors], axis=axis), parents, backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > a.data.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) outside axis {axis} of shape {a.data.shape}")
    slicer = [slice(None)] * a.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[slicer] = g
            _accum(a, full, owned=True)

    return _result("narrow", a.data[slicer], (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs 1-d indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeError(f"gather_rows indices outside [0, {a.data.shape[0]})")

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            _accum(a, full, owned=True)

    return _result("gather_rows", a.data[idx], (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _result("reshape", a.data.reshape(shape), (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a.data.shape} to {shape}") from exc
    in_shape = a.data.shape

    def backward(g):
        gg = g
        extra = g.ndim - len(in_shape)
        if extra:
            gg = gg.sum(axis=tuple(range(extra)))
        keep = tuple(i for i, n in enumerate(in_shape) if n == 1 and gg.shape[i] != 1)
        if keep:
            gg = gg.sum(axis=keep, keepdims=True)
        _accum(a, gg)

    return _result("broadcast_to", out_data, (a,), backward)


# ---------------------------------------------------------------------------
# hand-differentiated blocks


def fused(op: str, data: np.ndarray, parents: tuple[Tensor, ...], grads,
          kink: np.ndarray | None = None) -> Tensor:
    """One tape node for a block whose backward is written by hand.

    ``grads(g)`` maps the output gradient to one array per parent, in
    order, or ``None`` for a parent that needs none. Each array must be
    float64, freshly allocated and returned for one parent only: the
    parents take it without a copy. ``kink`` is the active-branch mask of
    a relu or abs inside the block; it is reported like theirs, so
    :func:`grad_check` flags coordinates that cross it.
    """
    if kink is not None:
        _record_kink(kink)

    def backward(g):
        for parent, grad in zip(parents, grads(g)):
            if grad is not None:
                _accum(parent, grad, owned=True)

    return _result(op, data, parents, backward)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    Returns a map from leaf tensors (requires_grad, no parents) to their
    gradients. A non-leaf node's ``.grad`` is released once its backward
    has run, so only the leaves keep gradients. Calling twice on the same
    loss tensor is an error; rebuild the graph instead.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this loss; rebuild the graph before calling again")
    loss._backward_done = True
    order = _toposort(loss)
    if loss.requires_grad:
        _accum(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
    return {t: t.grad for t in order if t.requires_grad and not t._parents and t.grad is not None}


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckEntry:
    param: int
    coord: int
    analytic: float
    numeric: float
    rel_error: float
    kink: bool


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    checked: int
    kinks: int
    passed: bool
    entries: list[GradCheckEntry] = field(default_factory=list, repr=False)

    def failing(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.kink and e.rel_error > self.tolerance]


def _traces_match(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(f, params, eps: float = 1e-5, tol: float = 1e-6,
               max_coords: int | None = None, rng=None) -> GradCheckReport:
    """Compare the backward pass of ``f()`` against central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor that
    depends on ``params`` (a list of Tensors, perturbed in place).
    Relative error per coordinate is |a - n| / max(1, |a|, |n|).
    Coordinates whose +/-eps evaluations cross a relu/abs branch are
    flagged as kinks and excluded from the pass/fail verdict.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(params)
    out = f()
    if out.data.size != 1:
        raise ShapeError(f"grad_check requires a scalar-valued function, got shape {out.data.shape}")
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if max_coords is not None and len(coords) > max_coords:
        rng = rng if rng is not None else np.random.default_rng(0)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(k)] for k in sorted(picked)]

    entries: list[GradCheckEntry] = []
    max_rel = 0.0
    kinks = 0
    for i, j in coords:
        flat = params[i].data.reshape(-1)
        original = flat[j]
        flat[j] = original + eps
        with no_grad(), _kink_tracing() as trace_plus:
            f_plus = float(f().data.reshape(()))
        flat[j] = original - eps
        with no_grad(), _kink_tracing() as trace_minus:
            f_minus = float(f().data.reshape(()))
        flat[j] = original

        kink = not _traces_match(trace_plus, trace_minus)
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[i].reshape(-1)[j])
        rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        entries.append(GradCheckEntry(i, j, a, numeric, rel, kink))
        if kink:
            kinks += 1
        else:
            max_rel = max(max_rel, rel)

    return GradCheckReport(max_rel_error=max_rel, tolerance=tol, checked=len(entries),
                           kinks=kinks, passed=max_rel <= tol, entries=entries)
