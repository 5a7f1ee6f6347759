"""Command-line front end.

One JSON config file drives every subcommand; ``--set section.key=value``
flags override file values (flags win). Unknown config keys are
rejected. Only ``gen-data`` reads the ``data`` section (``gradcheck`` its
seed); the others take the grid's shape and split from the dataset.
Outputs land under one run directory together with a ``run.json``
provenance record: the whole resolved config, read or not, with every
seed, its hash and the versions. Exit codes: 0 success, 2 config error,
3 data error, 4 numerical failure, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, autodiff, crossk, grid as griddata, metrics, pool, training
from .errors import ConfigError, DataError, NumericalError, from_dict
from .losses import SurrogateConfig, hybrid_objective
from .model import (ModelConfig, ModelSection, forward, init_params, load_checkpoint, predictions_for,
                    save_checkpoint)
from .training import Splits, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5

# The most distances a cross-K curve may have: eval.crossk_max_distance /
# eval.crossk_step + 1 (the default grid has 9).
MAX_CROSSK_DISTANCES = 1000
# The most CSR simulations per day (the default is 99): csr_envelope holds
# an (n_sim, k) int64 draw and an (n_sim, k, 2) stack of cells.
MAX_CROSSK_SIMS = 10_000


@dataclass
class DataConfig:
    """The grid ``gen-data`` writes; ``gradcheck`` reads the seed alone. Other
    subcommands take shape and split from the dataset, though ``run.json`` records this section."""

    seed: int = 7
    rows: int = 8
    cols: int = 8
    periods: int = 120
    hotspots: int = 3
    d_t: int = 4
    d_s: int = 6
    d_st: int = 3
    train_fraction: float = 0.75

    def validate(self) -> "DataConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, least in (("rows", 4), ("cols", 4), ("periods", 30), ("hotspots", 1),
                            ("d_t", 1), ("d_s", 1), ("d_st", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        return self


@dataclass
class EvalConfig:
    ks: list[int] = field(default_factory=lambda: [5, 10, 20])
    radius: float = metrics.EVAL_RADIUS
    crossk_k: int = 10
    crossk_max_distance: float = 4.0
    crossk_step: float = 0.5
    crossk_sims: int = 99
    crossk_seed: int = 0
    envelope: str = "minmax"

    def validate(self) -> "EvalConfig":
        if not self.ks or min(self.ks) < 1:
            raise ConfigError(f"ks must be a non-empty list of cutoffs >= 1, got {self.ks}")
        if self.radius < 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        for name in ("crossk_k", "crossk_sims"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.crossk_sims > MAX_CROSSK_SIMS:
            raise ConfigError(f"crossk_sims must be at most {MAX_CROSSK_SIMS}, got {self.crossk_sims}")
        if self.crossk_seed < 0:
            raise ConfigError(f"crossk_seed must be >= 0, got {self.crossk_seed}")
        if self.envelope not in crossk.ENVELOPE_METHODS:
            raise ConfigError(f"envelope must be one of {crossk.ENVELOPE_METHODS}, got {self.envelope!r}")
        if self.crossk_step <= 0:
            raise ConfigError(f"crossk_step must be > 0, got {self.crossk_step}")
        if self.crossk_max_distance < 0:
            raise ConfigError(f"crossk_max_distance must be >= 0, got {self.crossk_max_distance}")
        if (self.crossk_max_distance + 1e-9) / self.crossk_step > MAX_CROSSK_DISTANCES:
            raise ConfigError(f"crossk_max_distance gives more than {MAX_CROSSK_DISTANCES} cross-K distances "
                              f"at crossk_step {self.crossk_step:g}, got {self.crossk_max_distance:g}")
        return self


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str = "runs/default"


def load_run_config(config_path: str | None, overrides: list[str]) -> RunConfig:
    payload: dict = {}
    if config_path:
        path = Path(config_path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"malformed config {path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config root must be a JSON object")
    for override in overrides:
        _apply_override(payload, override)
    return from_dict(RunConfig, payload)


def _apply_override(payload: dict, assignment: str) -> None:
    """Set one ``section.key=value`` in the raw payload; value is JSON or plain text."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} must look like section.key=value")
    dotted, text = assignment.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    *sections, leaf = dotted.strip().split(".")
    target = payload
    for depth, part in enumerate(sections, 1):
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ConfigError(f"config section {'.'.join(sections[:depth])} must be an object")
    target[leaf] = value


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_run_record(config: RunConfig, command: str, out_dir: Path, ran_on: dict | None = None) -> None:
    """``run.json``: the command, the resolved config and its hash, the pool
    the command's model calls ran on (serial when none ran) beside the CPUs
    available, and the versions."""
    out_dir.mkdir(parents=True, exist_ok=True)
    griddata.save_json(out_dir / "run.json", {
        "command": command,
        "config": asdict(config),
        "config_sha256": config_hash(config),
        "pool": ran_on or {"kind": "serial", "workers": 1},
        "cpus": pool.cpus(),
        "versions": {"gridrank": __version__,
                     "python": ".".join(str(v) for v in sys.version_info[:3]),
                     "numpy": np.__version__},
    })


def _splits_for(dataset: griddata.StGrid) -> Splits:
    """The split the dataset's features were normalized on, as its
    manifest records it (``load_grid`` checks it)."""
    return Splits(train_end=dataset.normalization["train_end"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args, config: RunConfig) -> int:
    data = config.data
    dataset = griddata.generate_synthetic(data.seed, data.rows, data.cols, data.periods, data.hotspots,
                                          d_t=data.d_t, d_s=data.d_s, d_st=data.d_st,
                                          train_fraction=data.train_fraction)
    out_dir = Path(args.out or config.out_dir)
    manifest = griddata.save_grid(dataset, out_dir)
    write_run_record(config, "gen-data", out_dir)
    print(f"wrote dataset manifest {manifest}")
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    splits = _splits_for(dataset)
    model_config = ModelConfig.for_grid(dataset, **asdict(config.model))
    state = training.train(dataset, splits, model_config, config.train, eval_radius=config.eval.radius)
    out_dir = Path(args.out or config.out_dir)
    write_run_record(config, "train", out_dir, state.pool)  # creates out_dir
    save_checkpoint(out_dir / "checkpoint", state.best_params())
    training.write_training_log(state, out_dir / "training_log.csv")
    best = "n/a" if state.best_metric in (None, -np.inf) else f"{state.best_metric:.4f}"
    print(f"trained {len(state.log)} epochs; best val ndcg@{config.train.eval_k} = {best} "
          f"(epoch {state.best_epoch}); checkpoint in {out_dir}")
    return EXIT_OK


def cmd_evaluate(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    splits = _splits_for(dataset)
    ks = list(config.eval.ks)
    too_large = [k for k in ks if k > dataset.n_locations]
    if too_large:
        raise ConfigError(f"eval.ks cutoff(s) {too_large} exceed the grid's {dataset.n_locations} locations")
    if args.predictor == "model":
        params = load_checkpoint(Path(args.checkpoint))
        report = training.evaluate_split(params, dataset, splits, ks, config.eval.radius)
        stem = "report"
    else:
        report = training.baseline_report(dataset, splits, config.model.window, ks,
                                          config.eval.radius)
        stem = "report_ha"
    out_dir = Path(args.out or config.out_dir)
    ran_on = pool.describe(dataset.n_locations, False) if args.predictor == "model" else None
    write_run_record(config, "evaluate", out_dir, ran_on)  # creates out_dir
    report.write_json(out_dir / f"{stem}.json")
    report.write_csv(out_dir / f"{stem}.csv")
    for k in ks:
        row = report.lookup("ndcg", k)
        shown = "undefined" if row.mean is None else f"{row.mean:.4f}"
        print(f"ndcg@{k}: {shown}")
    print(f"wrote {out_dir / (stem + '.json')}")
    return EXIT_OK


def _scores_for_day(args, config: RunConfig, dataset: griddata.StGrid, day: int) -> np.ndarray:
    if args.predictor == "oracle":
        return dataset.risk_by_location()[:, day].astype(float)
    if args.predictor == "ha":
        splits = _splits_for(dataset)
        return training.historical_average(dataset, splits)
    params = load_checkpoint(Path(args.checkpoint))
    if day < params.config.window:
        raise ConfigError(f"day {day} has no length-{params.config.window} input window")
    return predictions_for(params, dataset, [griddata.Window(day, params.config.window)])[0]


def cmd_rank(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    try:
        day = dataset.periods - 1 if args.day == "last" else int(args.day)
    except ValueError:
        raise ConfigError(f"--day must be a period index or 'last', got {args.day!r}") from None
    if not 0 <= day < dataset.periods:
        raise ConfigError(f"day {day} outside study period [0, {dataset.periods})")
    k = min(10, dataset.n_locations) if args.k is None else args.k
    if not 1 <= k <= dataset.n_locations:
        raise ConfigError(f"--k {k} outside [1, {dataset.n_locations}]")
    scores = _scores_for_day(args, config, dataset, day)
    order = metrics.descending_order(scores)[:k]
    actual = dataset.risk_by_location()[:, day]
    print(f"top-{k} locations for period {day} ({args.predictor}):")
    print("rank,location,row,col,score,actual_risk")
    for position, location in enumerate(order, start=1):
        r, c = divmod(int(location), dataset.cols)
        print(f"{position},{location},{r},{c},{scores[location]:.6f},{actual[location]:g}")
    return EXIT_OK


def cmd_crossk(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    if config.eval.crossk_k > dataset.n_locations:
        raise ConfigError(f"eval.crossk_k={config.eval.crossk_k} exceeds the grid's "
                          f"{dataset.n_locations} locations")
    splits = _splits_for(dataset)
    params = load_checkpoint(Path(args.checkpoint)) if args.predictor == "model" else None
    window = config.model.window if params is None else params.config.window
    _, actual, predicted = training.scored_split(dataset, splits, window, params)
    stem = "crossk_ha" if params is None else "crossk_model"
    distances = np.arange(0.0, config.eval.crossk_max_distance + 1e-9, config.eval.crossk_step)
    curve = crossk.daily_average_curve(actual, predicted, config.eval.crossk_k, distances,
                                       (dataset.rows, dataset.cols),
                                       n_sim=config.eval.crossk_sims,
                                       seed=config.eval.crossk_seed,
                                       method=config.eval.envelope)
    out_dir = Path(args.out or config.out_dir)
    ran_on = None if params is None else pool.describe(dataset.n_locations, False)
    write_run_record(config, "crossk", out_dir, ran_on)  # creates out_dir
    path = crossk.write_curve_csv(curve, out_dir / f"{stem}.csv")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args, config: RunConfig) -> int:
    if args.coords < 1:
        raise ConfigError(f"--coords must be >= 1, got {args.coords}")
    dataset = griddata.generate_synthetic(config.data.seed, 4, 4, 30, 2)
    model_config = ModelConfig.for_grid(dataset, hidden=4, recurrent_hidden=4,
                                        conv_layers=2, window=2, embed_dim=3)
    params = init_params(model_config, seed=config.data.seed)
    from .adjacency import pearson_static

    params.static_graph = pearson_static(dataset.risk[:, :, :20])
    window = griddata.Window(21, 2)
    tensors = params.tensors()
    day = dataset.risk_by_location()[:, window.target]

    report_forward = autodiff.grad_check(
        lambda: training.warmup_loss(day, forward(params, dataset, window)),
        tensors, eps=1e-5, tol=1e-4, max_coords=args.coords,
        rng=np.random.default_rng(config.data.seed))
    surrogate = SurrogateConfig(margin=1.0, local_weight=0.5, radius=2.0)
    report_loss = autodiff.grad_check(
        lambda: hybrid_objective(day, forward(params, dataset, window), surrogate,
                                 None, (dataset.rows, dataset.cols)),
        tensors, eps=1e-5, tol=1e-4, max_coords=args.coords,
        rng=np.random.default_rng(config.data.seed + 1))

    ok = True
    for label, report in (("forward", report_forward), ("hybrid-objective", report_loss)):
        verdict = "PASS" if report.passed else "FAIL"
        print(f"gradcheck {label}: {verdict} max_rel_error={report.max_rel_error:.3e} "
              f"checked={report.checked} kinks={report.kinks}")
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_GRADCHECK


def cmd_config_schema(args, config: RunConfig) -> int:
    print(json.dumps(asdict(RunConfig()), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridrank",
                                     description="Spatiotemporal top-K event ranking toolkit")
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config value (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset: manifest.json, and its arrays as "
                                        "tensors.bin + tensors.json, a sha256-checked binary tensor file")
    p.add_argument("--out", help="dataset directory")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train and write checkpoint + log")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", help="run directory")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="write a ranking report for the validation split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", help="checkpoint directory (model predictor)")
    p.add_argument("--predictor", choices=["model", "ha"], default="model")
    p.add_argument("--out", help="run directory")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("rank", help="print the top-K table for one day")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--day", default="last", help="target period index or 'last'")
    p.add_argument("--k", type=int, default=None, help="rows to print, in [1, S] (default min(10, S))")
    p.add_argument("--predictor", choices=["model", "ha", "oracle"], default="model")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("crossk", help="write cross-K curve CSV with CSR envelope")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--predictor", choices=["model", "ha"], default="model")
    p.add_argument("--out", help="run directory")
    p.set_defaults(handler=cmd_crossk)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--coords", type=int, default=120, help="sampled coordinates per check")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("config-schema", help="print the default config (round-trips as a config file)")
    p.set_defaults(handler=cmd_config_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_run_config(args.config, args.overrides)
        if getattr(args, "command", "") in ("evaluate", "rank", "crossk"):
            if getattr(args, "predictor", "model") == "model" and not getattr(args, "checkpoint", None):
                raise ConfigError("--checkpoint is required with the model predictor")
        # Overflow and invalid values show as a NumericalError from the
        # finiteness checks, in one line; numpy's warnings would add more.
        with np.errstate(all="ignore"):
            return args.handler(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
