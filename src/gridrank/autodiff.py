"""Minimal reverse-mode automatic differentiation over dense float32 or
float64 arrays.

There is one kind of tape node: :func:`fused`, a block whose forward is
plain numpy and whose backward is written by hand (period step, a
window's recurrent pass, ranking surrogate, warm-up loss, negation). Parent
links form the implicit tape; ``backward`` replays it in reverse
topological order exactly once per node. Design rules:

* a node computes in its parents' dtype: a tensor keeps a float32 array
  as float32 and holds everything else as float64, and a block's
  constants are Python floats or arrays of that dtype, so no array turns
  into float64 unasked. Training runs its gradient step in float32 on a
  copy of float64 master weights; the masters, scores, losses, metrics
  and checkpoints are float64;
* no masked ``copyto`` or ``where`` over large arrays: ``np.maximum`` and
  multiplying by a mask do the same job in a fraction of the time;
* no fresh S x S temporary where a buffer from the same call can be
  reused: a block writes into its own buffers with ``out=`` and works in
  place, or in row blocks, since each fresh S x S array costs page
  faults on first touch (the per-period step cut them from about 90k to
  5k per 32 x 32 training pass).

Blocks that contain a relu or abs report their active-branch masks to a
trace when one is installed, which lets :func:`grad_check` flag
coordinates whose finite-difference stencil straddles a
nondifferentiable point.

A node keeps its gradient function with the parents it aligns with, and
:func:`vjp` maps an output gradient to (parent, gradient) pairs without
adding them anywhere. Each gradient is an array just allocated for one
parent, so the first one becomes the parent's ``.grad`` without a copy.
:func:`backward_pairs` walks the tape and returns the leaves' pairs
unadded, so threads can backpropagate tapes that share leaves and add
the pairs in an order of their choosing; ``backward`` adds them at once.
The walk releases each non-leaf node's ``.grad`` and its gradient
function once the node's pairs are taken: the function holds the node's
activations, so the tape's memory is freed as the walk goes, and a node
that has been walked cannot be walked again.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError

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


def tracing_kinks() -> bool:
    """Whether a kink trace is installed: a kinked block run without
    gradients builds its branch masks only then."""
    return _kink_trace is not None


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
    """Dense array plus the bookkeeping needed for backprop: a float32
    array is kept as float32, anything else is held as float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grads = None
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


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first gradient becomes ``t.grad``
    itself, so ``g`` must be an array of ``t``'s dtype that no one else
    holds."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _result(op: str, data: np.ndarray, parents: tuple[Tensor, ...], grads) -> Tensor:
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericalError(f"{op} produced non-finite values")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grads = grads
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) = (1 + tanh(x / 2)) / 2, finite for every finite x."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# hand-differentiated blocks


def fused(op: str, data: np.ndarray, parents: tuple[Tensor, ...], grads,
          kinks: tuple[np.ndarray, ...] | list[np.ndarray] = ()) -> Tensor:
    """One tape node for a block whose backward is written by hand.

    ``grads(g)`` maps the output gradient to one array per parent, in
    order, or ``None`` for a parent that needs none; a parent listed more
    than once gets one array per listing. Each array must have its
    parent's dtype, be freshly allocated and be returned for one parent
    only: the parents take it without a copy. ``kinks`` are the
    active-branch masks of the relus and abs inside the block, in a fixed
    order; they go to the kink trace, so :func:`grad_check` flags
    coordinates that cross them.
    """
    for kink in kinks:
        _record_kink(kink)
    return _result(op, data, parents, grads)


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
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def vjp(node: Tensor, g: np.ndarray) -> list[tuple[Tensor, np.ndarray]]:
    """The (parent, gradient) pairs of ``node`` for the output gradient
    ``g``, one for each parent that requires grad and gets a gradient;
    nothing is accumulated and ``g`` is not kept."""
    return [(parent, grad) for parent, grad in zip(node._parents, node._grads(g))
            if grad is not None and parent.requires_grad]


def backward_pairs(loss: Tensor) -> list[tuple[Tensor, np.ndarray]]:
    """The (leaf, gradient) pairs of d(loss)/d(leaf), for the leaves
    (requires_grad, no parents) reachable from the scalar ``loss``, in the
    order ``backward`` adds them; a leaf reached along several paths has
    one pair per path. No leaf's ``.grad`` changes. Each non-leaf node's
    ``.grad`` and gradient function are released once its pairs are
    taken. Calling twice on the same loss tensor, or walking a node an
    earlier call walked, is an error; rebuild the graph instead.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this loss; rebuild the graph before calling again")
    loss._backward_done = True
    if not loss.requires_grad:
        return []
    if not loss._parents:
        return [(loss, np.ones_like(loss.data))]
    pairs = []
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if not node._parents or node.grad is None:
            continue
        if node._grads is None:
            raise RuntimeError("backward already ran through this node; rebuild the graph before calling again")
        for parent, grad in vjp(node, node.grad):
            if parent._parents:
                _accum(parent, grad)
            else:
                pairs.append((parent, grad))
        node.grad = node._grads = None
    return pairs


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf:
    :func:`backward_pairs`, each pair added in order.

    Returns a map from the leaf tensors that got a gradient to their
    ``.grad``. Only the leaves keep gradients.
    """
    pairs = backward_pairs(loss)
    for leaf, grad in pairs:
        _accum(leaf, grad)
    return {leaf: leaf.grad for leaf, _ in pairs}


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
