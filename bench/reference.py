"""Reference computations the benchmark checks gridrank's outputs against.

Written from the package's docstrings, not from its code, and importing
nothing from it:

* a numpy scorer that rebuilds a checkpoint's scores from the files
  ``checkpoint.json`` + ``checkpoint.bin`` (JSON manifest + raw
  little-endian float64 blob);
* brute-force NDCG@k, precision@k and local NDCG@k, with each
  neighbourhood found by an explicit distance test per pair of cells;
* brute-force cross-K pair counts.

Conventions taken from the docstrings: locations are row-major
(``row * cols + col``); gains are ``2^y - 1`` with a ``log2(position + 2)``
discount; ties in scores go to the lower location index; a day or a
neighbourhood with zero ideal gain is undefined and left out of means.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# checkpoint scorer


def read_checkpoint(directory) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, {tensor name: array}) straight from the checkpoint files."""
    directory = Path(directory)
    manifest = json.loads((directory / "checkpoint.json").read_text())
    blob = (directory / "checkpoint.bin").read_bytes()
    arrays = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=count,
                                              offset=entry["offset"]).reshape(shape).astype(np.float64)
    return manifest["config"], arrays


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the right limit 0
        return 1.0 / (1.0 + np.exp(-x))


def reference_scores(config: dict, arrays: dict[str, np.ndarray], temporal: np.ndarray,
                     spatial: np.ndarray, spatiotemporal: np.ndarray, target: int) -> np.ndarray:
    """Scores of every location at period ``target`` from the inputs
    ``[target - window, target)``.

    temporal (T, d_t), spatial (rows, cols, d_s), spatiotemporal
    (rows, cols, T, d_st). Per input period t:

    * dynamic graph ``relu(tanh(a (Z1 Z2^T - Z2 Z1^T)))`` with
      ``Zi = tanh(a (emb_i + X_st W_proj) mix_i)`` and a = saturation;
    * gate ``sigmoid(f_t . time_gate)`` (or the fixed gate), blend
      ``gate * dynamic + (1 - gate) * static``;
    * ``A_hat = D^-1 (A + I)``, D the row sums, or ``|row sum| + 1e-6``
      when the static graph has a negative entry;
    * graph convolutions ``H <- relu(A_hat H W)`` from
      ``H = [spatial, spatiotemporal_t]``;
    * an LSTM step on ``[H, f_t]`` with gate blocks in the order input,
      forget, candidate, output.

    The final hidden state maps linearly to one score per location.
    """
    rows, cols = spatial.shape[:2]
    s = rows * cols
    alpha = float(config["saturation"])
    hr = int(config["recurrent_hidden"])
    static = arrays["static_graph"]
    signed = bool((static < 0.0).any())
    convs = [arrays[f"conv.{i}"] for i in range(int(config["conv_layers"]))]
    spatial_flat = spatial.reshape(s, -1)

    h = np.zeros((s, hr))
    c = np.zeros((s, hr))
    for t in range(target - int(config["window"]), target):
        x_st = spatiotemporal[:, :, t, :].reshape(s, -1)
        lifted = x_st @ arrays["adjacency.feature_proj"]
        z1 = np.tanh(alpha * ((arrays["adjacency.emb1"] + lifted) @ arrays["adjacency.mix1"]))
        z2 = np.tanh(alpha * ((arrays["adjacency.emb2"] + lifted) @ arrays["adjacency.mix2"]))
        dynamic = np.maximum(np.tanh(alpha * (z1 @ z2.T - z2 @ z1.T)), 0.0)
        if config.get("fixed_gate") is None:
            gate = float(_sigmoid(temporal[t] @ arrays["adjacency.time_gate"][:, 0]))
        else:
            gate = float(config["fixed_gate"])
        with_loops = gate * dynamic + (1.0 - gate) * static + np.eye(s)
        degree = with_loops.sum(axis=1, keepdims=True)
        if signed:
            degree = np.abs(degree) + 1e-6
        a_hat = with_loops / degree

        hidden = np.concatenate([spatial_flat, x_st], axis=1)
        for weight in convs:
            hidden = np.maximum((a_hat @ hidden) @ weight, 0.0)

        step = np.concatenate([hidden, np.tile(temporal[t], (s, 1))], axis=1)
        gates = step @ arrays["lstm.wx"] + h @ arrays["lstm.wh"] + arrays["lstm.bias"]
        i_gate = _sigmoid(gates[:, :hr])
        f_gate = _sigmoid(gates[:, hr:2 * hr])
        candidate = np.tanh(gates[:, 2 * hr:3 * hr])
        o_gate = _sigmoid(gates[:, 3 * hr:])
        c = f_gate * c + i_gate * candidate
        h = o_gate * np.tanh(c)
    return (h @ arrays["head.weight"] + arrays["head.bias"])[:, 0]


# ---------------------------------------------------------------------------
# ranking metrics, one comparison at a time


def descending(values) -> list[int]:
    """Indices by value descending, ties by ascending index."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def _dcg(gains) -> float:
    return sum(g / math.log2(position + 2.0) for position, g in enumerate(gains))


def ndcg_at_k(relevance, scores, k: int) -> float | None:
    gains = [2.0 ** r - 1.0 for r in relevance]
    ideal = _dcg(sorted(gains, reverse=True)[:k])
    if ideal == 0.0:
        return None
    return _dcg([gains[i] for i in descending(scores)[:k]]) / ideal


def precision_at_k(relevance, scores, k: int) -> float:
    return sum(1 for i in descending(scores)[:k] if relevance[i] > 0) / k


def neighbourhoods(rows: int, cols: int, radius: float) -> list[list[int]]:
    """Members of each location's disc: every cell whose center lies within
    ``radius`` of the location's center, tested pair by pair."""
    members = []
    for center in range(rows * cols):
        cr, cc = divmod(center, cols)
        members.append([other for other in range(rows * cols)
                        if (other // cols - cr) ** 2 + (other % cols - cc) ** 2 <= radius * radius])
    return members


def local_ndcg(relevance, scores, members_of: list[list[int]], k: int | None) -> float | None:
    """Mean over neighbourhoods with positive ideal gain of NDCG inside the
    neighbourhood, cut at ``min(k, size)`` (no cut when k is None)."""
    values = []
    for members in members_of:
        cut = len(members) if k is None else min(k, len(members))
        value = ndcg_at_k([relevance[m] for m in members], [scores[m] for m in members], cut)
        if value is not None:
            values.append(value)
    return sum(values) / len(values) if values else None


def mean_defined(values) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


# ---------------------------------------------------------------------------
# cross-K


def cross_k_counts(pred_cells, true_cells, distances) -> list[int]:
    """For each d, the number of (true, predicted) cell pairs whose centers
    lie within d of each other; coincident cells count."""
    counts = []
    for d in distances:
        count = 0
        for tr, tc in true_cells:
            for pr, pc in pred_cells:
                if (tr - pr) ** 2 + (tc - pc) ** 2 <= d * d:
                    count += 1
        counts.append(count)
    return counts


def cross_k(pred_cells, true_cells, distances, area: float) -> list[float]:
    """K(d) = (area / |pred|) * pairs within d / |true|."""
    counts = cross_k_counts(pred_cells, true_cells, distances)
    return [count / len(true_cells) / (len(pred_cells) / area) for count in counts]


def daily_average_cross_k(actual, predicted, k: int, distances, rows: int, cols: int) -> list[float]:
    """Mean over days with at least one event of K(d) between the day's k
    top-scored cells and its event cells (positive risk)."""
    curves = []
    for day_actual, day_scores in zip(actual, predicted):
        events = [divmod(i, cols) for i, y in enumerate(day_actual) if y > 0]
        if not events:
            continue
        top = [divmod(i, cols) for i in descending(list(day_scores))[:k]]
        curves.append(cross_k(top, events, distances, float(rows * cols)))
    return [sum(column) / len(curves) for column in zip(*curves)]
