"""Compare two checkouts' ranking quality on held-out test days, paired by
data seed and training seed.

    python3 tools/heldout_pairs.py --parent ../parent --change . \
        --seeds 5-14 --train-seeds 0-3 --epochs 8 --warmup-epochs 4

A pair is one (data seed, training seed), for every data seed of
``--seeds`` and every training seed of ``--train-seeds`` (default 0). For
each pair, each checkout trains and scores in its own subprocess, with its
``src`` on PYTHONPATH and every BLAS pool on one thread; the side that
runs first alternates from pair to pair (the parent on the first).
Each run splits the grid chronologically into train, validation and test
periods. On the default 8x8x120 grid:

* ``generate_synthetic(seed, 8, 8, 120, train_fraction=0.625)``
  normalizes the features on periods [0, 75);
* ``training.train`` runs on the grid cut to its first 95 periods with
  ``Splits(75)``, so it selects its best epoch on [75, 95);
* ``best_params()`` is scored on the windows that target [95, 120) of the
  full grid: test ndcg@10 and lndcg@10 at the evaluation radius.

On another ``--grid`` the cuts scale with the period count (0.625 and
95/120 of it). Training uses the default model, the pair's training
seed, batch 8, ``lr_warmup`` 1e-2, ``lr_main`` 3e-3 and the given epoch
counts. Each pair prints its data and training seed, both sides' test
ndcg@10 and lndcg@10, the paired difference (change - parent) and each
side's seconds (training and test scoring); the last lines give the mean
difference, its standard error (sd / sqrt(n) over the n pairs), its
standard deviation and the number of pairs the change won (a tie counts
for neither side). Differences print to four significant digits, so an
exact tie prints as +0. The tool exits 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import parse_seeds
from same_bits import ONE_THREAD, parse_grid

TRAIN_FRACTION = 0.625
TEST_FRACTION = 25 / 120
K = 10
LR_WARMUP, LR_MAIN = 1e-2, 3e-3
METRICS = ("ndcg", "lndcg")


def score_one(job: dict) -> dict:
    """Train one pair's model and score the test days, with the gridrank
    on ``sys.path``; runs in the child process."""
    from gridrank import grid as griddata, metrics, model, training

    rows, cols, periods = job["grid"]
    full = griddata.generate_synthetic(job["seed"], rows, cols, periods, train_fraction=TRAIN_FRACTION)
    train_end = full.normalization["train_end"]
    test_start = periods - int(round(TEST_FRACTION * periods))
    cut = griddata.StGrid(temporal=full.temporal[:test_start], spatial=full.spatial,
                          spatiotemporal=full.spatiotemporal[:, :, :test_start],
                          risk=full.risk[:, :, :test_start], normalization=full.normalization).validate()
    model_config = model.ModelConfig.for_grid(full)
    train_config = training.TrainConfig(epochs=job["epochs"], warmup_epochs=job["warmup_epochs"],
                                        batch_size=8, lr_warmup=LR_WARMUP, lr_main=LR_MAIN,
                                        eval_k=K, seed=job["train_seed"])
    started = time.perf_counter()
    state = training.train(cut, training.Splits(train_end), model_config, train_config)
    windows = [griddata.Window(t, model_config.window) for t in range(test_start, periods)]
    days = [w.target for w in windows]
    actual = full.risk_by_location()[:, days].T.copy()
    predicted = model.predictions_for(state.best_params(), full, windows)
    report = metrics.metric_report(actual, predicted, [K], (rows, cols), day_periods=days)
    seconds = time.perf_counter() - started
    return {**{name: report.lookup(name, K).mean for name in METRICS}, "seconds": seconds}


def run_side(checkout: Path, job: dict) -> dict:
    """``score_one`` in a subprocess on ``checkout``'s gridrank."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--job", json.dumps(job)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{checkout}: seed {job['seed']} training seed {job['train_seed']} exited {done.returncode}: "
              f"{done.stderr.strip()}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent checkout")
    parser.add_argument("--change", type=Path, help="the changed checkout")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("5-14"), help="data seeds, e.g. 5-14")
    parser.add_argument("--train-seeds", type=parse_seeds, default=parse_seeds("0"),
                        help="training seeds, e.g. 0-3 (default 0)")
    parser.add_argument("--grid", type=parse_grid, default=(8, 8, 120), help="ROWSxCOLSxPERIODS (default 8x8x120)")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--warmup-epochs", type=int, default=4)
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.job is not None:
        print(json.dumps(score_one(json.loads(args.job))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    diffs = {name: [] for name in METRICS}
    print(f"seed train  {'  '.join(f'{n}@{K} parent change diff' for n in METRICS)}  seconds parent change")
    pairs = [(seed, train_seed) for seed in args.seeds for train_seed in args.train_seeds]
    for i, (seed, train_seed) in enumerate(pairs):
        job = {"seed": seed, "train_seed": train_seed, "grid": args.grid, "epochs": args.epochs,
               "warmup_epochs": args.warmup_epochs}
        order = [("parent", args.parent), ("change", args.change)][::1 if i % 2 == 0 else -1]
        side = {name: run_side(checkout, job) for name, checkout in order}
        cells = []
        for name in METRICS:
            diffs[name].append(side["change"][name] - side["parent"][name])
            cells.append(f"{side['parent'][name]:.4f} {side['change'][name]:.4f} {diffs[name][-1]:+.4g}")
        print(f"{seed:4d} {train_seed:5d}  {'  '.join(cells)}  "
              f"{side['parent']['seconds']:.2f} {side['change']['seconds']:.2f}", flush=True)
    for name in METRICS:
        values = np.array(diffs[name])
        spread = values.std(ddof=1) if values.size > 1 else 0.0
        print(f"{name}@{K} change - parent: mean {values.mean():+.4g} se {spread / np.sqrt(values.size):.4g} "
              f"sd {spread:.4g} won {int((values > 0).sum())} of {values.size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
