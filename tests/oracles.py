"""Independent brute-force reference implementations used as test oracles.

Pure Python loops, no shared code with the package paths they check. The
one exception is ``generic_graph_block``, which composes the per-period
graph block from the generic autodiff ops as the reference for the fused
nodes that replace that chain.
"""

import math

import numpy as np

from gridrank import autodiff as ad


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


def generic_graph_block(params, features, static, temporal, fixed_gate, signed):
    """Dynamic graph, gate, blend and D^-1 (A + I) normalization built from
    about twenty generic ops; returns (dynamic, gate, blended, normalized)."""
    alpha = params.saturation
    lifted = ad.matmul(ad.constant(features), params.feature_proj)
    e1 = ad.add(params.emb1, lifted)
    e2 = ad.add(params.emb2, lifted)
    z1 = ad.tanh(ad.mul(ad.matmul(e1, params.mix1), alpha))
    z2 = ad.tanh(ad.mul(ad.matmul(e2, params.mix2), alpha))
    cross = ad.sub(ad.matmul(z1, ad.transpose(z2)), ad.matmul(z2, ad.transpose(z1)))
    dynamic = ad.relu(ad.tanh(ad.mul(cross, alpha)))

    s = dynamic.shape[0]
    if fixed_gate is None:
        gate = ad.sigmoid(ad.matmul(ad.constant(np.reshape(temporal, (1, -1))), params.time_gate))
    else:
        gate = ad.constant([[float(fixed_gate)]])
    gate_full = ad.broadcast_to(gate, (s, s))
    complement = ad.sub(1.0, gate_full)
    blended = ad.add(ad.mul(gate_full, dynamic), ad.mul(complement, ad.constant(static)))

    with_loops = ad.add(blended, ad.constant(np.eye(s)))
    row_sums = ad.sum_(with_loops, axis=1, keepdims=True)
    denom = ad.add(ad.abs_(row_sums), 1e-6) if signed else row_sums
    normalized = ad.div(with_loops, ad.broadcast_to(denom, with_loops.shape))
    return dynamic, gate, blended, normalized
