"""Independent brute-force reference implementations used as test oracles.

Pure Python loops, no shared code with the package paths they check. The
exceptions are built on the package's autodiff, each op one ``ad.fused``
node, which only tests and the chains below use:

* the generic ops ``add``, ``sub``, ``mul``, ``neg``, ``matmul``,
  ``sigmoid``, ``relu``, ``softplus``, ``square``, ``mean_`` and
  ``concat``, with three conventions: no implicit broadcasting between
  tensors (add, sub and mul reject operands of different shapes with a
  ``ShapeError``), a Python number as the second operand of add or mul
  as the one exception, and the subgradient relu'(0) = 0, with relu
  reporting its 1[a > 0] mask as a kink;
* the shape and elementwise ops ``transpose``, ``tanh``, ``abs_``
  (abs'(0) = 0), ``narrow``, ``reshape``, ``broadcast_to``,
  ``gather_rows``, ``sum_``, ``log2`` and ``div``;
* ``generic_graph_block``, ``generic_recurrent`` and
  ``generic_bounded_gain``, which compose the per-period graph block, the
  recurrent cell and the ranking surrogate from generic ops as the
  references for the fused nodes that replace those chains;
  ``generic_warmup_loss``, the warm-up mean squared error as the generic
  chain the fused warm-up node replaces;
* ``node_period_step``, the per-period step as three graph nodes (dynamic
  graph, blend, normalization, each with its own hand-written backward)
  plus generic conv ops, the reference for the one fused step node;
* ``per_window_gradients``, the per-window training step that the
  once-per-batch step must reproduce;
* ``metric_report_per_cutoff``, the evaluation table ranked and sorted
  again for every (day, cutoff) pair, with every neighbourhood list
  ranked by its own three-key lexsort: the reference whose bits the
  once-per-day ``metrics.metric_report`` must give. Its lists come from
  ``grid.neighbourhood_stencil``, which tests check against
  ``brute_neighborhood``; and
  ``pairwise_cross_k``, the
  cross-K count from a float array of pairwise distances with one
  comparison per distance, and ``csr_envelope_loop``, the
  one-simulation-at-a-time cross-K envelope built on it.
"""

import functools
import math

import numpy as np

from gridrank import autodiff as ad
from gridrank import model
from gridrank.errors import ShapeError
from gridrank.grid import cell_coordinates, neighbourhood_stencil


def brute_rank(scores, location):
    """1-based rank: higher score first, ties by ascending index."""
    better = 0
    for other, value in enumerate(scores):
        if value > scores[location] or (value == scores[location] and other < location):
            better += 1
    return better + 1


def brute_order(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def brute_ndcg(relevance, scores, k):
    """Direct gain/discount evaluation with an explicit ideal list."""
    order = brute_order(scores)[:k]
    dcg = 0.0
    for position, location in enumerate(order):
        gain = 2.0 ** relevance[location] - 1.0
        dcg += gain / math.log2(position + 2.0)
    ideal = brute_order(relevance)[:k]
    z = 0.0
    for position, location in enumerate(ideal):
        gain = 2.0 ** relevance[location] - 1.0
        z += gain / math.log2(position + 2.0)
    if z == 0.0:
        return None
    return dcg / z


def brute_neighborhood(center, rows, cols, radius):
    cr, cc = divmod(center, cols)
    members = []
    for r in range(rows):
        for c in range(cols):
            if math.dist((r, c), (cr, cc)) <= radius + 1e-12:
                members.append(r * cols + c)
    return members


def brute_l_ndcg(relevance, scores, radius, rows, cols, k=None):
    """Average of per-neighborhood scores over centers with positive ideal gain."""
    values = []
    for center in range(rows * cols):
        members = brute_neighborhood(center, rows, cols, radius)
        local_rel = [relevance[m] for m in members]
        local_scores = [scores[m] for m in members]
        cutoff = len(members) if k is None else min(k, len(members))
        value = brute_ndcg(local_rel, local_scores, cutoff)
        if value is not None:
            values.append(value)
    if not values:
        return None
    return sum(values) / len(values)


def brute_surrogate_rank(scores, location, margin):
    """Squared-hinge rank over-estimate, self term included."""
    total = 0.0
    for value in scores:
        diff = value - scores[location] + margin
        if diff > 0:
            total += diff * diff
    return total


def brute_ndcg_surrogate(relevance, scores, margin):
    """Uncut surrogate objective with uniform weights."""
    ideal = brute_order(relevance)
    z = 0.0
    for position, location in enumerate(ideal):
        z += (2.0 ** relevance[location] - 1.0) / math.log2(position + 2.0)
    total = 0.0
    for location, rel in enumerate(relevance):
        if rel <= 0:
            continue
        bound = brute_surrogate_rank(scores, location, margin)
        total += (2.0 ** rel - 1.0) / (z * math.log2(bound + 1.0))
    return total


def brute_l_ndcg_surrogate(relevance, scores, weights, margin, radius, rows, cols):
    """Local surrogate: per positive center with nonzero weight, the uncut
    bound-based gain sum over its neighborhood (local ranks, local ideal
    gain), summed and divided by the number of positives."""
    positives = [location for location, rel in enumerate(relevance) if rel > 0]
    total = 0.0
    for weight, center in zip(weights, positives):
        members = brute_neighborhood(center, rows, cols, radius)
        local_rel = [relevance[m] for m in members]
        local_scores = [scores[m] for m in members]
        z = 0.0
        for position, rel in enumerate(sorted(local_rel, reverse=True)):
            z += (2.0 ** rel - 1.0) / math.log2(position + 2.0)
        if weight == 0 or z == 0.0:
            continue
        for position, rel in enumerate(local_rel):
            bound = brute_surrogate_rank(local_scores, position, margin)
            total += weight * (2.0 ** rel - 1.0) / (z * math.log2(bound + 1.0))
    return total / len(positives) if positives else 0.0


def _same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b):
    """a + b for two tensors of one shape, or a tensor plus a number."""
    if isinstance(b, (int, float)):
        return ad.fused("add", a.data + float(b), (a,), lambda g: (g.copy(),))
    _same_shape("add", a, b)
    return ad.fused("add", a.data + b.data, (a, b), lambda g: (g.copy(), g.copy()))


def sub(a, b):
    _same_shape("sub", a, b)
    return ad.fused("sub", a.data - b.data, (a, b), lambda g: (g.copy(), -g))


def mul(a, b):
    """a * b for two tensors of one shape, or a tensor times a number."""
    if isinstance(b, (int, float)):
        k = float(b)
        return ad.fused("mul", a.data * k, (a,), lambda g: (g * k,))
    _same_shape("mul", a, b)
    return ad.fused("mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def neg(a):
    return ad.fused("neg", -a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    def grads(g):
        return (g @ b.data.T if a.requires_grad else None, a.data.T @ g if b.requires_grad else None)

    return ad.fused("matmul", a.data @ b.data, (a, b), grads)


def sigmoid(a):
    out = ad._stable_sigmoid(a.data)
    return ad.fused("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a):
    """max(a, 0) with relu'(0) = 0; reports the 1[a > 0] mask as a kink."""
    mask = a.data > 0.0
    return ad.fused("relu", np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,), kinks=(mask,))


def softplus(a):
    return ad.fused("softplus", np.logaddexp(0.0, a.data), (a,), lambda g: (g * ad._stable_sigmoid(a.data),))


def square(a):
    return ad.fused("square", a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def mean_(a, axis=None, keepdims=False):
    count = a.data.size if axis is None else a.data.shape[axis]

    def grads(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return ad.fused("mean", a.data.mean(axis=axis, keepdims=keepdims), (a,), grads)


def concat(tensors, axis=0):
    """Tensors joined along ``axis``; the backward splits the gradient."""
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return ad.fused("concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                    lambda g: [part.copy() for part in np.split(g, cuts, axis=axis)])


def transpose(a):
    return ad.fused("transpose", a.data.T, (a,), lambda g: (g.T.copy(),))


def tanh(a):
    out = np.tanh(a.data)
    return ad.fused("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def abs_(a):
    """|a| with abs'(0) = 0; reports the 1[a > 0] branch mask as a kink."""
    sign = np.sign(a.data)
    return ad.fused("abs", np.abs(a.data), (a,), lambda g: (g * sign,), kinks=(a.data > 0.0,))


def reshape(a, shape):
    return ad.fused("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape).copy(),))


def broadcast_to(a, shape):
    """``a`` broadcast to ``shape``; the backward sums over the broadcast axes."""
    def grads(g):
        extra = g.ndim - a.data.ndim
        summed = g.sum(axis=tuple(range(extra))) if extra else g
        axes = tuple(i for i, n in enumerate(a.data.shape) if n == 1 and summed.shape[i] != 1)
        return (np.array(summed.sum(axis=axes, keepdims=True) if axes else summed, dtype=np.float64),)

    return ad.fused("broadcast_to", np.broadcast_to(a.data, shape), (a,), grads)


def gather_rows(a, indices):
    """Rows ``indices`` of ``a``, repeats allowed; the backward adds them back."""
    idx = np.asarray(indices, dtype=np.intp)

    def grads(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return ad.fused("gather_rows", a.data[idx], (a,), grads)


def sum_(a, axis=None):
    def grads(g):
        expanded = g if axis is None else np.expand_dims(g, axis)
        return (np.array(np.broadcast_to(expanded, a.data.shape), dtype=np.float64),)

    return ad.fused("sum", np.asarray(a.data.sum(axis=axis)), (a,), grads)


def log2(a):
    return ad.fused("log2", np.log2(a.data), (a,), lambda g: (g / (a.data * math.log(2.0)),))


def div(a, b):
    """a / b for two tensors of one shape."""
    return ad.fused("div", a.data / b.data, (a, b),
                    lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def generic_bounded_gain(scores, groups, margin):
    """Sum over groups (lists, targets, coeff, valid) of coeff / log2(1 +
    rank bound) over (B, q) candidate lists, built from about a dozen
    generic ops per group: the reference for ``losses._bounded_gain``,
    with the same arguments (None groups skipped, constant 0 for none)."""
    parts = []
    for lists, targets, coeff, valid in filter(None, groups):
        (n_lists, q), t = lists.shape, targets.shape[1]
        candidates = reshape(gather_rows(scores, lists.reshape(-1)), (n_lists, q))
        flat = (targets + q * np.arange(n_lists)[:, None]).reshape(-1)
        row = reshape(gather_rows(reshape(candidates, (n_lists * q,)), flat), (n_lists, 1, t))
        column = reshape(candidates, (n_lists, q, 1))
        diff = sub(broadcast_to(column, (n_lists, q, t)), broadcast_to(row, (n_lists, q, t)))
        hinge = square(relu(add(diff, float(margin))))
        if valid is not None:
            kept = valid[:, :, None] | (np.arange(q)[None, :, None] == targets[:, None, :])
            hinge = mul(hinge, ad.constant(kept.astype(np.float64)))
        bounds = sum_(hinge, axis=1)
        parts.append(sum_(div(ad.constant(coeff), log2(add(bounds, 1.0)))))
    return functools.reduce(add, parts) if parts else ad.constant(0.0)


def generic_warmup_loss(relevance, scores):
    """The warm-up mean squared error from generic ops: the reference for
    ``training.warmup_loss``."""
    return mean_(square(sub(scores, ad.constant(relevance))))


def adjacency_tensors(params):
    """The graph's tensors of the model's table, by their names without
    the ``adjacency.`` prefix: emb1, emb2, mix1, mix2, time_gate and
    feature_proj."""
    return {name.removeprefix("adjacency."): t for name, t in params.table.items() if name.startswith("adjacency.")}


def generic_graph_block(params, features, static, temporal, fixed_gate):
    """Dynamic graph, gate, blend and D^-1 (A + I) normalization built from
    about twenty generic ops; returns (dynamic, gate, blended, normalized)."""
    p, alpha = adjacency_tensors(params), params.config.saturation
    lifted = matmul(ad.constant(features), p["feature_proj"])
    e1 = add(p["emb1"], lifted)
    e2 = add(p["emb2"], lifted)
    z1 = tanh(mul(matmul(e1, p["mix1"]), alpha))
    z2 = tanh(mul(matmul(e2, p["mix2"]), alpha))
    cross = sub(matmul(z1, transpose(z2)), matmul(z2, transpose(z1)))
    dynamic = relu(tanh(mul(cross, alpha)))

    s = dynamic.shape[0]
    if fixed_gate is None:
        gate = sigmoid(matmul(ad.constant(np.reshape(temporal, (1, -1))), p["time_gate"]))
    else:
        gate = ad.constant([[float(fixed_gate)]])
    gate_full = broadcast_to(gate, (s, s))
    complement = add(neg(gate_full), 1.0)
    blended = add(mul(gate_full, dynamic), mul(complement, ad.constant(static)))

    with_loops = add(blended, ad.constant(np.eye(s)))
    row_sums = reshape(sum_(with_loops, axis=1), (s, 1))
    denom = add(abs_(row_sums), 1e-6)
    normalized = div(with_loops, broadcast_to(denom, with_loops.shape))
    return dynamic, gate, blended, normalized


def dynamic_adjacency_node(params, features):
    """The dynamic graph as one tape node with parents emb1, emb2, mix1,
    mix2 and feature_proj, and the backward documented in
    ``adjacency.dynamic_adjacency_grads``; its relu mask is reported as a
    kink."""
    p, alpha = adjacency_tensors(params), params.config.saturation
    mix1, mix2 = p["mix1"].data, p["mix2"].data
    lifted = features @ p["feature_proj"].data
    e1 = p["emb1"].data + lifted
    e2 = p["emb2"].data + lifted
    z1 = np.tanh((e1 @ mix1) * alpha)
    z2 = np.tanh((e2 @ mix2) * alpha)
    out = z1 @ z2.T
    out -= z2 @ z1.T
    out *= alpha
    np.tanh(out, out=out)
    np.maximum(out, 0.0, out=out)
    active = out > 0.0

    def grads(g):
        g_c = (1.0 - out * out) * g * active * alpha
        k = g_c - g_c.T
        g_u1 = (k @ z2) * ((1.0 - z1 * z1) * alpha)
        g_u2 = -(k @ z1) * ((1.0 - z2 * z2) * alpha)
        g_e1 = g_u1 @ mix1.T
        g_e2 = g_u2 @ mix2.T
        return g_e1, g_e2, e1.T @ g_u1, e2.T @ g_u2, features.T @ (g_e1 + g_e2)

    return ad.fused("dynamic_adjacency", out,
                    (p["emb1"], p["emb2"], p["mix1"], p["mix2"], p["feature_proj"]),
                    grads, kinks=(active,))


def blend_node(dynamic, static, temporal, time_gate, fixed_gate):
    """g A_dyn + (1 - g) A_static as one tape node with parents A_dyn and
    the (1, 1) gate; returns (gate, blended)."""
    if fixed_gate is None:
        gate = sigmoid(matmul(ad.constant(np.reshape(temporal, (1, -1))), time_gate))
    else:
        gate = ad.constant([[float(fixed_gate)]])
    weight = gate.data[0, 0]
    mixed = dynamic.data * weight
    mixed += static * (1.0 - weight)

    def grads(g):
        g_gate = None
        if gate.requires_grad:
            g_gate = np.full((1, 1), np.vdot(g, dynamic.data) - np.vdot(g, static))
        return g * weight, g_gate

    return gate, ad.fused("blend", mixed, (dynamic, gate), grads)


def normalized_node(matrix):
    """D^-1 (A + I), d_i = |r_i| + 1e-6 for the row sums r_i, as one tape
    node, with 1[r > 0] reported as a kink."""
    out = matrix.data.copy()
    out.flat[::out.shape[0] + 1] += 1.0
    row_sums = out.sum(axis=1, keepdims=True)
    slope = np.sign(row_sums)
    denom = np.abs(row_sums) + 1e-6
    out /= denom

    def grads(g):
        return ((g - np.einsum("ij,ij->i", g, out)[:, None] * slope) / denom,)

    return ad.fused("normalized_adjacency", out, (matrix,), grads,
                    kinks=(row_sums > 0.0,))


def node_graph_block(params, features, static, temporal, fixed_gate):
    """The graph block as three tape nodes (dynamic graph, blend,
    normalization); returns (dynamic, gate, blended, normalized)."""
    dynamic = dynamic_adjacency_node(params, features)
    gate, blended = blend_node(dynamic, static, temporal, params.table["adjacency.time_gate"], fixed_gate)
    return dynamic, gate, blended, normalized_node(blended)


def conv_step(params, grid, t, normalized):
    """The graph convolutions over ``normalized`` and the concatenated
    temporal features of period t, from generic ops."""
    st_t = grid.spatiotemporal_at(t)
    h = ad.constant(np.concatenate([grid.spatial_flat(), st_t], axis=1))
    for l in range(params.config.conv_layers):
        h = relu(matmul(matmul(normalized, h), params.table[f"conv.{l}"]))
    tiled = np.broadcast_to(grid.temporal[t], (grid.n_locations, grid.d_t))
    return concat([h, ad.constant(tiled)], axis=1)


def node_period_step(params, grid, t, block=node_graph_block):
    """The per-period step as the three graph nodes plus generic conv
    ops: the reference for the fused ``model._period_step``. ``block`` may
    be ``generic_graph_block`` instead."""
    normalized = block(params, grid.spatiotemporal_at(t), params.static_graph,
                       grid.temporal[t], params.config.fixed_gate)[-1]
    return conv_step(params, grid, t, normalized)


def narrow(a, axis, start, length):
    """Slice [start, start + length) of ``axis`` as one tape node; the
    backward scatters the gradient into zeros of the input's shape."""
    slicer = [slice(None)] * a.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)

    def grads(g):
        full = np.zeros_like(a.data)
        full[slicer] = g
        return (full,)

    return ad.fused("narrow", a.data[slicer], (a,), grads)


def generic_recurrent(params, steps):
    """The recurrent cell and the score head built from about fifteen
    generic ops per step: the reference for the fused recurrent node."""
    s, table = params.config.n_locations, params.table
    hr = params.config.recurrent_hidden
    hidden_state = ad.constant(np.zeros((s, hr)))
    cell_state = ad.constant(np.zeros((s, hr)))
    for step_in in steps:
        gates = add(add(matmul(step_in, table["lstm.wx"]), matmul(hidden_state, table["lstm.wh"])),
                       broadcast_to(table["lstm.bias"], (s, 4 * hr)))
        in_gate = sigmoid(narrow(gates, 1, 0, hr))
        forget_gate = sigmoid(narrow(gates, 1, hr, hr))
        candidate = tanh(narrow(gates, 1, 2 * hr, hr))
        out_gate = sigmoid(narrow(gates, 1, 3 * hr, hr))
        cell_state = add(mul(forget_gate, cell_state), mul(in_gate, candidate))
        hidden_state = mul(out_gate, tanh(cell_state))
    scores = add(matmul(hidden_state, table["head.weight"]), broadcast_to(table["head.bias"], (s, 1)))
    return reshape(scores, (s,))


def per_window_gradients(params, grid, windows, loss_of):
    """The per-window training step: ``forward`` and one ``backward`` per
    window, every period's graph rebuilt in every window that holds it.
    Returns the loss values and a copy of every named parameter gradient."""
    ad.zero_grads(params.tensors())
    values = []
    for window in windows:
        loss = loss_of(window, model.forward(params, grid, window))
        values.append(loss.item())
        ad.backward(loss)
    return values, {name: None if t.grad is None else t.grad.copy() for name, t in params.named_tensors()}


def _discounted(gains_in_rank_order):
    positions = np.arange(gains_in_rank_order.shape[-1], dtype=np.float64)
    return (gains_in_rank_order / np.log2(positions + 2.0)).sum(axis=-1)


def _ndcg_rows(relevance, scores, k, valid):
    """NDCG@min(k, m) of each row of (B, m) candidate lists, each ranked by
    its own lexsort (padding last, score descending, position ascending)."""
    relevance = np.where(valid, relevance, 0.0)
    position = np.broadcast_to(np.arange(relevance.shape[1]), relevance.shape)
    top = np.lexsort((position, -scores, ~valid), axis=-1)[:, :k]
    z = _discounted(-np.sort(-(np.exp2(relevance) - 1.0), axis=-1)[..., :k])
    dcg = _discounted(np.exp2(np.take_along_axis(relevance, top, axis=-1)) - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z > 0.0, dcg / z, np.nan)


def metric_report_per_cutoff(actual, predicted, ks, shape, radius, day_periods=None):
    """``metrics.metric_report(...).to_json_dict()`` computed one (day,
    cutoff) pair at a time: every pair sorts the day's S cells and lexsorts
    its S neighbourhood lists again."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n_days, n_locations = actual.shape
    members, valid = neighbourhood_stencil(*shape, float(radius))
    everyone = np.ones((1, n_locations), dtype=bool)
    metrics = []
    for k in ks:
        per_day = {"ndcg": [], "prec": [], "lndcg": []}
        for relevance, scores in zip(actual, predicted):
            value = _ndcg_rows(relevance[None], scores[None], k, everyone)[0]
            per_day["ndcg"].append(None if np.isnan(value) else float(value))
            top = np.lexsort((np.arange(n_locations), -scores))[:k]
            per_day["prec"].append(float((relevance[top] > 0).sum() / k))
            values = _ndcg_rows(relevance[members], scores[members], k, valid)
            values = values[~np.isnan(values)]
            per_day["lndcg"].append(float(np.mean(values)) if values.size else None)
        for name, values in per_day.items():
            defined = [v for v in values if v is not None]
            mean, std = (float(np.mean(defined)), float(np.std(defined))) if defined else (None, None)
            metrics.append({"metric": name, "K": k, "mean": mean, "std": std, "per_day": values})
    days = list(range(n_days)) if day_periods is None else list(day_periods)
    return {"days": days, "metrics": metrics}


def pairwise_cross_k(pred_points, true_points, distances, area):
    """K(d) for one (n, 2) set of predictions from the float distance of
    every (true, pred) pair, counted with one comparison per distance: the
    reference for ``crossk.cross_k``'s histogram of squared distances."""
    pred_points = np.asarray(pred_points, dtype=np.float64).reshape(-1, 2)
    true_points = np.asarray(true_points, dtype=np.float64).reshape(-1, 2)
    diff = true_points[:, None, :] - pred_points[None, :, :]
    pairwise = np.sqrt((diff * diff).sum(axis=2))
    counts = np.array([(pairwise <= d).sum() for d in np.asarray(distances, dtype=np.float64)])
    return counts / true_points.shape[0] / (pred_points.shape[0] / area)


def csr_envelope_loop(n_pred, true_points, distances, shape, n_sim=99, seed=0, method="minmax",
                      quantiles=(0.025, 0.975)):
    """The CSR envelope scored one simulation at a time with
    ``pairwise_cross_k``, from the same generator and draws as
    ``crossk.csr_envelope``."""
    rows, cols = shape
    coords = cell_coordinates(rows, cols)
    draws = np.random.default_rng(seed).integers(0, rows * cols, size=(n_sim, n_pred))
    curves = np.empty((n_sim, len(distances)))
    for i, cells in enumerate(draws):
        curves[i] = pairwise_cross_k(coords[cells], true_points, distances, float(rows * cols))
    if method == "minmax":
        return curves.min(axis=0), curves.max(axis=0)
    return np.quantile(curves, quantiles[0], axis=0), np.quantile(curves, quantiles[1], axis=0)
