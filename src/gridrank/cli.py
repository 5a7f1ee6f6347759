"""Command-line front end.

One JSON config file drives every subcommand; ``--set section.key=value``
flags override file values (flags win). Unknown config keys are
rejected. Outputs land under one run directory together with a
``run.json`` provenance record (resolved config, its hash, versions);
the resolved config holds every seed. Exit codes: 0 success, 2 config
error, 3 data error, 4 numerical failure, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, autodiff, crossk, grid as griddata, metrics, training
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
    seed: int = 7
    rows: int = 8
    cols: int = 8
    periods: int = 120
    hotspots: int = 3
    d_t: int = 4
    d_s: int = 6
    d_st: int = 3
    train_fraction: float = 0.75


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


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str = "runs/default"

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.train.validate()
        for name, seed in (("data.seed", self.data.seed), ("eval.crossk_seed", self.eval.crossk_seed)):
            if seed < 0:
                raise ConfigError(f"{name} must be >= 0, got {seed}")
        if not 0.0 < self.data.train_fraction < 1.0:
            raise ConfigError(f"data.train_fraction must be in (0, 1), got {self.data.train_fraction}")
        if not self.eval.ks or min(self.eval.ks) < 1:
            raise ConfigError(f"eval.ks must be a non-empty list of cutoffs >= 1, got {self.eval.ks}")
        if self.eval.radius < 0:
            raise ConfigError(f"eval.radius must be >= 0, got {self.eval.radius}")
        if self.eval.crossk_k < 1 or self.eval.crossk_sims < 1:
            raise ConfigError(f"eval.crossk_k and eval.crossk_sims must be >= 1, got "
                              f"{self.eval.crossk_k} and {self.eval.crossk_sims}")
        if self.eval.crossk_sims > MAX_CROSSK_SIMS:
            raise ConfigError(f"eval.crossk_sims must be at most {MAX_CROSSK_SIMS}, got {self.eval.crossk_sims}")
        if self.eval.envelope not in crossk.ENVELOPE_METHODS:
            raise ConfigError(f"envelope must be one of {crossk.ENVELOPE_METHODS}")
        if self.eval.crossk_step <= 0:
            raise ConfigError(f"eval.crossk_step must be > 0, got {self.eval.crossk_step}")
        if self.eval.crossk_max_distance < 0:
            raise ConfigError(f"eval.crossk_max_distance must be >= 0, got {self.eval.crossk_max_distance}")
        if (self.eval.crossk_max_distance + 1e-9) / self.eval.crossk_step > MAX_CROSSK_DISTANCES:
            raise ConfigError(f"eval.crossk_max_distance / eval.crossk_step gives more than "
                              f"{MAX_CROSSK_DISTANCES} cross-K distances, got "
                              f"{self.eval.crossk_max_distance:g} / {self.eval.crossk_step:g}")
        return self


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
    return from_dict(RunConfig, payload).validate()


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


def write_run_record(config: RunConfig, command: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "config": asdict(config),
        "config_sha256": config_hash(config),
        "versions": {"gridrank": __version__,
                     "python": ".".join(str(v) for v in sys.version_info[:3]),
                     "numpy": np.__version__},
    }
    with open(out_dir / "run.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _splits_for(config: RunConfig, dataset: griddata.StGrid) -> Splits:
    """The chronological split at ``data.train_fraction``; it must agree
    with the split the dataset's features were normalized on, if the
    manifest records one."""
    train_end = griddata.split_boundary(dataset.periods, config.data.train_fraction)
    normalized = dataset.normalization.get("train_end")
    if normalized is not None and normalized != train_end:
        raise ConfigError(f"data.train_fraction={config.data.train_fraction} splits at period {train_end}, "
                          f"but the dataset's features were normalized on periods before {normalized}")
    return Splits(train_end=train_end).validate(dataset.periods)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args, config: RunConfig) -> int:
    data = config.data
    try:
        dataset = griddata.generate_synthetic(data.seed, data.rows, data.cols, data.periods,
                                              data.hotspots, d_t=data.d_t, d_s=data.d_s,
                                              d_st=data.d_st, train_fraction=data.train_fraction)
    except DataError as exc:  # every argument comes from the data section
        raise ConfigError(f"data section: {exc}") from None
    out_dir = Path(args.out or config.out_dir)
    manifest = griddata.save_grid(dataset, out_dir)
    write_run_record(config, "gen-data", out_dir)
    print(f"wrote dataset manifest {manifest}")
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    splits = _splits_for(config, dataset)
    model_config = ModelConfig.for_grid(dataset, **asdict(config.model))
    state = training.train(dataset, splits, model_config, config.train, eval_radius=config.eval.radius)
    out_dir = Path(args.out or config.out_dir)
    write_run_record(config, "train", out_dir)  # creates out_dir
    save_checkpoint(out_dir / "checkpoint", state.best_params())
    training.write_training_log(state, out_dir / "training_log.csv")
    best = "n/a" if state.best_metric in (None, -np.inf) else f"{state.best_metric:.4f}"
    print(f"trained {state.epochs_run} epochs; best val ndcg@{config.train.eval_k} = {best} "
          f"(epoch {state.best_epoch}); checkpoint in {out_dir}")
    return EXIT_OK


def cmd_evaluate(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    splits = _splits_for(config, dataset)
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
    write_run_record(config, "evaluate", out_dir)  # creates out_dir
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
        splits = _splits_for(config, dataset)
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
        r, c = griddata.location_rc(int(location), dataset.cols)
        print(f"{position},{location},{r},{c},{scores[location]:.6f},{actual[location]:g}")
    return EXIT_OK


def cmd_crossk(args, config: RunConfig) -> int:
    dataset = griddata.load_grid(args.data)
    if config.eval.crossk_k > dataset.n_locations:
        raise ConfigError(f"eval.crossk_k={config.eval.crossk_k} exceeds the grid's "
                          f"{dataset.n_locations} locations")
    splits = _splits_for(config, dataset)
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
    write_run_record(config, "crossk", out_dir)  # creates out_dir
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
    surrogate = SurrogateConfig(margin=1.0, local_weight=0.5, radius=2.0).validate()
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
