"""The benchmark's workloads: what each one runs, times and checks.

Every workload is one closed job on a synthetic grid from
``grid.generate_synthetic``, driven through gridrank's public functions
the way the ``train``, ``evaluate`` and ``crossk`` subcommands drive them:

* set-up: load the dataset from its CSV manifest (and, on eval-32x32, the
  checkpoint), as every subcommand starts;
* the pass: on the train workloads ``training.train`` at the workload's
  epoch budget (``gridrank train``); on eval-32x32
  ``training.evaluate_split`` at ks 5/10/20 (``gridrank evaluate``) and
  ``crossk.daily_average_curve`` with 99 CSR simulations over the
  validation days (``gridrank crossk``), each with its own
  ``predictions_for``.

The train workloads then save the best parameters, load them back and run
the evaluate + crossk pass once, untimed, for the quality figures and the
checks. One-off file writes (manifest, checkpoint) happen outside every
clock. The problem instance (data seed, initial parameters, batch order)
is fixed so that the quality figures repeat bit for bit; ``--seed`` seeds
the CSR simulations of the cross-K envelope.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridrank import crossk, grid as griddata, metrics, model, sampling, training

import reference
from tracer import COUNTS, SPANNED, Tracer

DATA_SEED = 7            # the `gridrank gen-data` default
TRAIN_FRACTION = 0.75    # the CLI default split
KS = [5, 10, 20]         # the `gridrank evaluate` default cutoffs
RADIUS = 2.0
CROSSK_K = 10
CROSSK_SIMS = 99
DISTANCES = np.arange(0.0, 4.0 + 1e-9, 0.5)

SCORE_RTOL = 1e-9
METRIC_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    periods: int
    train: dict               # TrainConfig fields that differ from the defaults
    main: str                 # what the timed pass is: "train" or "eval"
    setup_reps: int           # set-up repetitions; setup_s is the fastest
    quality_reference: bool = False


_SURROGATE = dict(batch_size=8, lr_warmup=1e-2, lr_main=3e-3)

WORKLOADS = {w.name: w for w in (
    # S = 64: per-op Python overhead; the only budget at which the ranker learns.
    Workload("train-8x8", 8, 8, 120, dict(epochs=8, warmup_epochs=4, **_SURROGATE),
             main="train", setup_reps=61, quality_reference=True),
    # S = 1024: dense S x S graph temporaries; one surrogate epoch with refresh.
    Workload("train-32x32", 32, 32, 32, dict(epochs=1, warmup_epochs=0, **_SURROGATE),
             main="train", setup_reps=15),
    # S = 1024, no gradients: evaluate + crossk on the initial checkpoint
    # (initial parameters plus the training-split Pearson graph), which
    # `training.train` returns at a zero-epoch budget.
    Workload("eval-32x32", 32, 32, 120, dict(epochs=0, warmup_epochs=0),
             main="eval", setup_reps=11),
)}


def splits_for(grid) -> training.Splits:
    """The CLI's chronological split at the default train fraction."""
    train_end = min(max(2, int(round(TRAIN_FRACTION * grid.periods))), grid.periods - 1)
    return training.Splits(train_end=train_end).validate(grid.periods)


@dataclass
class EvalOutput:
    report: metrics.RankingReport
    actual: np.ndarray
    predicted: np.ndarray
    curve: crossk.CrossKCurve


def eval_pass(params, grid, seed: int) -> EvalOutput:
    """What `gridrank evaluate` and `gridrank crossk` do once loaded."""
    splits = splits_for(grid)
    report = training.evaluate_split(params, grid, splits, KS, RADIUS)
    _, val_windows = training.split_windows(grid, splits, params.config.window)
    actual = grid.risk_by_location()[:, [w.target for w in val_windows]].T.copy()
    predicted = model.predictions_for(params, grid, val_windows)
    curve = crossk.daily_average_curve(actual, predicted, CROSSK_K, DISTANCES, (grid.rows, grid.cols),
                                       n_sim=CROSSK_SIMS, seed=seed, method="minmax")
    return EvalOutput(report, actual, predicted, curve)


def train_pass(workload: Workload, grid) -> training.TrainState:
    return training.train(grid, splits_for(grid), model.ModelConfig.for_grid(grid),
                          training.TrainConfig(**workload.train))


def prepare(workload: Workload, work: Path) -> dict:
    """One-off, untimed: generate the grid, write its manifest and, for
    eval-32x32, write the zero-epoch checkpoint."""
    grid, truth = griddata.generate_synthetic(DATA_SEED, workload.rows, workload.cols, workload.periods,
                                              return_truth=True)
    prepared = {"grid": grid, "truth": truth, "manifest": griddata.save_grid(grid, work / "data"),
                "checkpoint": work / "checkpoint", "state": None}
    if workload.main == "eval":
        prepared["state"] = train_pass(workload, grid)
        model.save_checkpoint(prepared["checkpoint"], prepared["state"].best_params())
    return prepared


def _timed(times: list, tracer: Tracer | None, name: str, fn, *args):
    gc.collect()
    with tracer.root(name) if tracer is not None else contextlib.nullcontext():
        started = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - started)
    return out


@dataclass
class Phases:
    """Timings and outputs of one execution of the workload's phases."""

    setup: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    grid: griddata.StGrid | None = None       # loaded in set-up, used by the passes
    params: model.ModelParams | None = None   # the checkpoint the eval passes use
    state: training.TrainState | None = None  # the first train pass's state
    train_logs: list = field(default_factory=list)  # every train pass's log without wall times
    evals: list = field(default_factory=list)
    refreshes: list = field(default_factory=list)

    def total_s(self) -> float:
        return sum(self.setup) + sum(self.passes)


def run_phases(workload: Workload, prepared: dict, seed: int, setup_reps: int,
               seconds: float, tracer: Tracer | None = None) -> Phases:
    """Set-up and pass of the workload; with a tracer, every timed call is a
    root span.

    The pass repeats while the next one would still end within ``seconds``
    (one pass when seconds is 0). Half of the set-up repetitions run before
    the passes and the rest after them: a shared host's speed can drift
    over tens of seconds, so set-up times taken in one stretch would all share
    that stretch's speed.
    """
    out = Phases(state=prepared["state"])
    checkpoint = prepared["checkpoint"]

    def setup():
        grid = griddata.load_grid(prepared["manifest"])
        params = model.load_checkpoint(checkpoint) if workload.main == "eval" else None
        return grid, params

    def train():
        state = train_pass(workload, out.grid)
        out.train_logs.append([{k: v for k, v in row.items() if k != "wall_time_s"} for row in state.log])
        out.state = out.state or state

    def evaluate():
        out.evals.append(eval_pass(out.params, out.grid, seed))

    before = (setup_reps + 1) // 2
    for _ in range(before):
        out.grid, out.params = _timed(out.setup, tracer, "bench.setup", setup)

    original_refresh = sampling.refresh

    def capture(*args, **kwargs):
        dist = original_refresh(*args, **kwargs)
        out.refreshes.append(dist.probs.copy())
        return dist

    sampling.refresh = capture
    try:
        while not out.passes or sum(out.passes) + out.passes[-1] <= seconds:
            _timed(out.passes, tracer, "bench.pass", train if workload.main == "train" else evaluate)
    finally:
        sampling.refresh = original_refresh

    for _ in range(setup_reps - before):
        _timed(out.setup, tracer, "bench.setup", setup)
    if workload.main == "train":
        model.save_checkpoint(checkpoint, out.state.best_params())
        out.params = model.load_checkpoint(checkpoint)
        evaluate()
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# checks against computations made apart from the program


def _close(a: float | None, b: float | None, atol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol


def check_outputs(workload: Workload, prepared: dict, phases: Phases) -> list[dict]:
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append({"check": name, "ok": bool(ok), "detail": detail})

    original = prepared["grid"]
    loaded, params = phases.grid, phases.params
    check("manifest round trip is bit-exact",
          all(np.array_equal(getattr(original, a), getattr(loaded, a))
              for a in ("temporal", "spatial", "spatiotemporal", "risk")))

    saved = phases.state.best_params().snapshot()
    restored = params.snapshot()
    check("checkpoint round trip is bit-exact",
          saved.keys() == restored.keys() and all(np.array_equal(saved[k], restored[k]) for k in saved))

    first = phases.evals[0]
    check("repeated eval passes give identical outputs",
          all(np.array_equal(e.predicted, first.predicted)
              and e.report.to_json_dict() == first.report.to_json_dict()
              and np.array_equal(e.curve.values, first.curve.values)
              and np.array_equal(e.curve.lo, first.curve.lo) for e in phases.evals))
    check("repeated train passes give identical logs",
          all(log == phases.train_logs[0] for log in phases.train_logs))

    # reference scorer, straight from the checkpoint files
    config, arrays = reference.read_checkpoint(prepared["checkpoint"])
    _, val_windows = training.split_windows(loaded, splits_for(loaded), params.config.window)
    worst = 0.0
    rebuilt = sorted({0, len(val_windows) // 2, len(val_windows) - 1})
    for index in rebuilt:
        ours = first.predicted[index]
        ref = reference.reference_scores(config, arrays, original.temporal, original.spatial,
                                         original.spatiotemporal, val_windows[index].target)
        worst = max(worst, float(np.max(np.abs(ref - ours)) / np.max(np.abs(ours))))
    check("reference scorer agrees with predictions_for", worst <= SCORE_RTOL,
          f"max relative difference {worst:.3e} over validation windows {rebuilt}")

    # brute-force ranking metrics at every cutoff, per day and averaged
    members = reference.neighbourhoods(loaded.rows, loaded.cols, RADIUS)
    actual = first.actual.tolist()
    predicted = first.predicted.tolist()
    mismatches = []
    for k in KS:
        brute = {
            "ndcg": [reference.ndcg_at_k(a, p, k) for a, p in zip(actual, predicted)],
            "prec": [reference.precision_at_k(a, p, k) for a, p in zip(actual, predicted)],
            "lndcg": [reference.local_ndcg(a, p, members, k) for a, p in zip(actual, predicted)],
        }
        for name, per_day in brute.items():
            summary = first.report.lookup(name, k)
            if not (all(_close(x, y, METRIC_ATOL) for x, y in zip(per_day, summary.per_day))
                    and _close(reference.mean_defined(per_day), summary.mean, METRIC_ATOL)):
                mismatches.append(f"{name}@{k}")
    check("brute-force ndcg, prec and lndcg agree with metric_report", not mismatches,
          f"mismatched: {mismatches}" if mismatches else f"ks {KS}, {len(actual)} days")

    # cross-K
    brute_k = reference.daily_average_cross_k(actual, predicted, CROSSK_K, DISTANCES.tolist(),
                                              loaded.rows, loaded.cols)
    curve = first.curve
    check("brute-force cross-K agrees with the curve",
          all(abs(a - b) <= METRIC_ATOL * max(1.0, abs(b)) for a, b in zip(brute_k, curve.values)))
    check("CSR envelope has lo <= hi", bool(np.all(curve.lo <= curve.hi)))
    check("cross-K curve does not decrease with d", bool(np.all(np.diff(curve.values) >= 0.0)))

    # training
    logs = phases.state.log
    check("every logged objective is finite", all(math.isfinite(row["train_obj"]) for row in logs))
    train_config = training.TrainConfig(**workload.train)
    surrogate_epochs = train_config.epochs - train_config.warmup_epochs
    s = loaded.n_locations
    expected = surrogate_epochs * len(phases.train_logs) if train_config.use_importance else 0
    check("each refreshed importance distribution is a distribution over S cells",
          len(phases.refreshes) == expected
          and all(p.shape == (s,) and np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9 for p in phases.refreshes),
          f"{len(phases.refreshes)} refreshes, {expected} expected")
    if train_config.warmup_epochs >= 2:
        w = train_config.warmup_epochs
        check("last warm-up epoch's regression loss is below the first's",
              logs[w - 1]["train_obj"] < logs[0]["train_obj"],
              f"{logs[0]['train_obj']:.6g} -> {logs[w - 1]['train_obj']:.6g}")
    return results


def quality_reference(workload: Workload, prepared: dict, phases: Phases) -> dict:
    """ndcg@10 and lndcg@10 on the workload's validation split for the
    historical average, the planted Poisson rate and the untrained model."""
    grid, params = phases.grid, phases.params
    splits = splits_for(grid)
    window = params.config.window
    _, val_windows = training.split_windows(grid, splits, window)
    days = [w.target for w in val_windows]
    actual = grid.risk_by_location()[:, days].T.copy()
    rate = prepared["truth"].rate.reshape(grid.n_locations, grid.periods)[:, days].T
    untrained = training.train(grid, splits, model.ModelConfig.for_grid(grid),
                               training.TrainConfig(**dict(workload.train, epochs=0, warmup_epochs=0)))
    reports = {
        "historical_average": training.baseline_report(grid, splits, window, [10], RADIUS),
        "planted_rate_oracle": metrics.metric_report(actual, rate, [10], (grid.rows, grid.cols), RADIUS),
        "untrained_model": training.evaluate_split(untrained.best_params(), grid, splits, [10], RADIUS),
        "trained_model": phases.evals[0].report,
    }
    return {name: {"ndcg10": r.lookup("ndcg", 10).mean, "lndcg10": r.lookup("lndcg", 10).mean}
            for name, r in reports.items()}


def end_to_end(phases: Phases, rss_mb: float) -> dict[str, float]:
    report = phases.evals[0].report
    return {
        # The fastest set-up, not the median: short Python-heavy calls run at
        # two speeds on a shared host, and the median of short loads flips
        # between them from run to run (see bench/README.md, "Noise").
        "setup_s": min(phases.setup),
        "pass_s": statistics.median(phases.passes),
        "peak_rss_mb": rss_mb,
        "ndcg10": report.lookup("ndcg", 10).mean,
        "lndcg10": report.lookup("lndcg", 10).mean,
    }


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Self time of every wrapped layer and every counter over the traced
    phases; a layer that was never called reads 0."""
    self_times = tracer.self_times()
    values = dict.fromkeys(COUNTS, 0)
    for module, function in SPANNED:
        name = f"{module.__name__.split('.')[-1]}.{function}"
        key = "training.train_self_s" if name == "training.train" else f"{name}_s"
        values[key] = self_times.get(name, 0.0)
    values.update(tracer.counts)
    values["bench.traced_s"] = traced_s
    values["bench.untraced_s"] = untraced_s
    values["bench.trace_overhead_s"] = traced_s - untraced_s
    values["bench.unattributed_s"] = sum(v for k, v in self_times.items() if k.startswith("bench."))
    return values
