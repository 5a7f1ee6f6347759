"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload train-8x8 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the benchmark imports ``gridrank`` from
``src/`` beside it and writes only under ``bench/_work/``. BLAS is pinned
to one thread before numpy loads.

--trace 0 times the phases untraced and prints the end-to-end metrics of
BENCHMARK.json. --trace 1 runs one set-up and one pass untraced, then again
with spans around gridrank's public functions, and prints the per-layer
metrics; the difference between the two totals is the tracing overhead.
The last line of standard output is the result object; the line before it
is the run record (environment, timings of every repetition, checks),
which is also written to ``bench/_work/results/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridrank" / "__init__.py").is_file():
        print(f"error: no gridrank sources at {SRC.relative_to(ROOT)}/gridrank; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    import environment
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = BENCH / "_work" / "results"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(workload, work)
        if args.trace:
            untraced = workloads.run_phases(workload, prepared, args.seed, 1, 0.0)
            tracer = Tracer()
            tracer.install()
            try:
                phases = workloads.run_phases(workload, prepared, args.seed, 1, 0.0, tracer)
            finally:
                tracer.uninstall()
            tracer.write(results / f"{tag}-spans.jsonl")
            values = workloads.per_layer(tracer, phases.total_s(), untraced.total_s())
        else:
            phases = workloads.run_phases(workload, prepared, args.seed, workload.setup_reps, args.seconds)
            values = workloads.end_to_end(phases, workloads.peak_rss_mb())
        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "data_seed": workloads.DATA_SEED,
            "grid": [workload.rows, workload.cols, workload.periods],
            "train_config": workload.train,
            "times_s": {"setup": phases.setup, "pass": phases.passes},
            "environment": environment.describe(SRC),
        }
        if workload.quality_reference and not args.trace:
            record["quality_reference"] = workloads.quality_reference(workload, prepared, phases)
        checks = workloads.check_outputs(workload, prepared, phases)
        if args.trace:
            same = (untraced.evals[0].report.to_json_dict() == phases.evals[0].report.to_json_dict()
                    and (untraced.evals[0].predicted == phases.evals[0].predicted).all())
            checks.append({"check": "traced and untraced runs give identical outputs", "ok": bool(same),
                           "detail": ""})
            record["attributed_s"] = sum(v for k, v in values.items()
                                         if k.endswith("_s") and not k.startswith("bench."))
        record["checks"] = checks
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": len(phases.setup) + len(phases.passes),
        "failed": 0,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    record["result"] = result
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    for c in checks:
        if not c["ok"]:
            print(f"check failed: {c['check']} {c['detail']}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
