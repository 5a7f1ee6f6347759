"""Check that two checkouts write the same bits: run the gridrank pipeline
on each and compare the sha256 of what it writes.

    python3 tools/same_bits.py --parent ../parent --change .

For each checkout and each ``--grid`` (default: the 8x8x120 default grid,
whose training runs the helper process; 16x16x40, where S = 256 runs the
thread pool; and 32x32x32, where S = 1024
is the benchmark's size and a float32 graph build spans several row
blocks), a fresh temporary directory runs ``gen-data``, then ``train``
with

    train.epochs=4 train.warmup_epochs=1 train.batch_size=8
    train.lr_warmup=0.01 train.lr_main=0.003

so that two of its three surrogate epochs draw from a refreshed importance
distribution, then ``evaluate`` and ``crossk`` on its checkpoint, with the
checkout's ``src`` on PYTHONPATH and every BLAS pool on one thread. The hashes
compared are those of the dataset ``gen-data`` writes (``manifest.json``
and the tensor file ``tensors.bin`` with its index ``tensors.json``, so a
change to the dataset writer or to the tensor-file format shows), then of
``checkpoint.bin``, ``checkpoint.json``, ``report.json``,
``crossk_model.csv`` and ``training_log.csv`` without its ``wall_time_s``
column. ``eval.ks`` keeps the default cutoffs 5, 10 and 20 that fit the
grid. Once per checkout it also hashes the stdout of ``gradcheck``, whose
relative errors and kink counts cover ``forward`` with gradients, a path
the pipeline does not run. Each hash is printed; the tool exits 1 on any
difference and 2 when a command fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN = ["train.epochs=4", "train.warmup_epochs=1", "train.batch_size=8",
         "train.lr_warmup=0.01", "train.lr_main=0.003"]
DATASET = ("manifest.json", "tensors.bin", "tensors.json")
CHECKPOINT = ("checkpoint.bin", "checkpoint.json")
OUTPUTS = DATASET + CHECKPOINT + ("report.json", "crossk_model.csv", "training_log.csv")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_grid(text: str) -> tuple[int, int, int]:
    """'16x16x40' as (rows, cols, periods)."""
    try:
        rows, cols, periods = (int(part) for part in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"a grid is ROWSxCOLSxPERIODS, got {text!r}") from None
    return rows, cols, periods


def log_without_wall_time(path: Path) -> bytes:
    """The training log as CSV text without its ``wall_time_s`` column."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kept = [name for name in rows[0] if name != "wall_time_s"] if rows else []
    out = io.StringIO()
    writer = csv.DictWriter(out, kept, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode()


def run_cli(checkout: Path, work: Path, args: list) -> str:
    """The stdout of the checkout's ``gridrank`` CLI run with ``args`` in
    ``work``; exits 2 when the command fails."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout.resolve() / "src")}
    argv = [sys.executable, "-m", "gridrank.cli"] + [str(part) for part in args]
    done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{checkout}: {' '.join(argv[3:])} exited {done.returncode}: {done.stderr.strip()}",
              file=sys.stderr)
        raise SystemExit(2)
    return done.stdout


def pipeline_hashes(checkout: Path, grid: tuple[int, int, int]) -> dict[str, str]:
    """The sha256 of each of ``OUTPUTS`` after one pipeline run."""
    rows, cols, periods = grid
    ks = [k for k in (5, 10, 20) if k <= rows * cols]
    settings = [f"data.rows={rows}", f"data.cols={cols}", f"data.periods={periods}",
                f"eval.ks={ks}"] + TRAIN
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data, run = work / "data", work / "run"
        for command in (["gen-data", "--out", data],
                        ["train", "--data", data / "manifest.json", "--out", run],
                        ["evaluate", "--data", data / "manifest.json", "--checkpoint", run / "checkpoint",
                         "--out", run],
                        ["crossk", "--data", data / "manifest.json", "--checkpoint", run / "checkpoint",
                         "--out", run]):
            run_cli(checkout, work, [f"--set={s}" for s in settings] + command)
        files = {**{name: data / name for name in DATASET}, **{name: run / "checkpoint" / name for name in CHECKPOINT},
                 "report.json": run / "report.json", "crossk_model.csv": run / "crossk_model.csv"}
        hashes = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
        hashes["training_log.csv"] = hashlib.sha256(log_without_wall_time(run / "training_log.csv")).hexdigest()
    return hashes


def gradcheck_hash(checkout: Path) -> str:
    """The sha256 of ``gradcheck``'s stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        return hashlib.sha256(run_cli(checkout, Path(tmp), ["gradcheck"]).encode()).hexdigest()


def compare(label: str, name: str, parent: str, change: str) -> bool:
    """Print one output's two hashes and verdict; whether they are the same."""
    same = parent == change
    print(f"{label} {name}: parent {parent} change {change} {'same' if same else 'DIFFERENT'}")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--grid", type=parse_grid, action="append",
                        help="ROWSxCOLSxPERIODS, repeatable (default 8x8x120, 16x16x40 and 32x32x32)")
    args = parser.parse_args(argv)
    differ = False
    for grid in args.grid or [(8, 8, 120), (16, 16, 40), (32, 32, 32)]:
        parent, change = pipeline_hashes(args.parent, grid), pipeline_hashes(args.change, grid)
        for name in OUTPUTS:
            differ |= not compare("x".join(map(str, grid)), name, parent[name], change[name])
    differ |= not compare("gradcheck", "stdout", gradcheck_hash(args.parent), gradcheck_hash(args.change))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
