"""Run bench/run.py on two checkouts in alternating pairs and write the
records, with a per-metric summary, to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload train-32x32 --seeds 171-180 --out BENCH_7.json \
        --claim pass_s --traced-seed 21

Each pair runs both checkouts with the same ``--seed``, one after the
other; the side that runs first alternates from pair to pair (the parent
on the first pair). Every pair runs for the ``run_seconds`` of the
change's BENCHMARK.json, which also gives the end-to-end metrics and their
directions. ``--traced-seed`` adds one ``--seconds 0 --trace 1`` run per
side. An existing ``--out`` file is extended: its pairs and traced runs are
kept and the summary is recomputed over all of them. For each ``--claim``
the summary's entry of that workload and metric gets a ``claim`` verdict,
also printed to standard error: the claim holds when at least ten pairs
ran, the change won at least nine tenths of them (a tie counts for neither
side) and the medians differ in the change's favour by more than the
parent's interquartile range. Every other entry of an end-to-end metric
gets a ``bound`` verdict from that metric's relative ``bound`` in
BENCHMARK.json, also printed to standard error: ``regressed`` when the
change's median is worse than the parent's by more than the bound times
the parent's median, ``unresolved`` when either side's interquartile
range exceeds that allowance, unless every change run beats every parent
run, and ``held`` otherwise. Each run also records, under ``usage``,
its wall time, its user and system CPU time and the host's steal ticks
over the run, and the summary gives each side's median CPU-to-wall ratio
per workload: it shows whether a second thread had a CPU, and how much
time the host took away. Beside the end-to-end metrics, the summary's
``fastest_pass_s`` compares each run's shortest timed pass, which drift
within a run touches least. ``src_lines`` holds
each side's count of lines in ``src/**/*.py``, as ``wc -l`` counts them.
``parent_commit`` is ``git rev-parse HEAD`` in the parent checkout or, for
a copy without git history (``git archive``), the ``--parent-commit``
value; with neither the tool exits 2 before any run. The tool exits 1 if
any run printed ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list[int]:
    """'171-180' or '171,175,179' (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def steal_ticks() -> int | None:
    """The host's steal time so far, in clock ticks: the eighth value of
    the ``cpu`` line of /proc/stat; None where there is no such file."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process; its run record with the result under
    "result" and, under "usage", the process's wall time, its user and
    system CPU time (from the rusage of the children waited for, taken
    before and after) and the steal ticks of /proc/stat over the run."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    before, steal, start = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks(), time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall, after, steal_after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(command)} printed no result "
                         f"(exit {done.returncode}): {done.stderr.strip()}")
    record = json.loads(lines[-2])["record"]
    record["result"] = json.loads(lines[-1])
    record["usage"] = {"wall_s": wall, "user_s": after.ru_utime - before.ru_utime,
                       "system_s": after.ru_stime - before.ru_stime,
                       "steal_ticks": None if steal is None or steal_after is None else steal_after - steal}
    return record


def git_head(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's ``src/**/*.py`` files."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def cpu_per_wall(run: dict) -> float:
    """A run's user plus system CPU time over its wall time: near 1 for a
    process that kept one CPU busy, up to 2 when its second thread had a
    CPU too."""
    usage = run["usage"]
    return (usage["user_s"] + usage["system_s"]) / usage["wall_s"]


def fastest_pass(run: dict) -> float:
    """The shortest of a run's timed passes, in seconds."""
    return min(run["times_s"]["pass"])


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' median and quartiles, the pairs the change won or tied,
    whether every change run beat every parent run, and the ratio of the
    medians."""
    sign = 1.0 if better == "lower" else -1.0
    sides = {"parent": _spread(parent), "change": _spread(change)}
    return {
        **sides,
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "tied_pairs": sum(c == p for p, c in zip(parent, change)),
        "change_beats_every_parent_run": bool(max(sign * c for c in change) < min(sign * p for p in parent)),
        "pairs": len(parent),
        "ratio_of_medians": sides["change"]["median"] / sides["parent"]["median"]
        if sides["parent"]["median"] else None,
    }


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, and for each run's fastest pass
    (``fastest_pass_s``): both sides' median and quartiles, the pairs the
    change won or tied, and the ratio of the medians; per workload also
    each side's median CPU-to-wall ratio over the pairs that record their
    usage."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        timed = [p for p in rows if "usage" in p["parent"] and "usage" in p["change"]]
        if timed:
            summary[workload]["cpu_per_wall"] = {
                side: float(np.median([cpu_per_wall(p[side]) for p in timed])) for side in ("parent", "change")}
        for metric in metrics:
            name = metric["name"]
            summary[workload][name] = _compare([p["parent"]["result"]["metrics"][name]["value"] for p in rows],
                                               [p["change"]["result"]["metrics"][name]["value"] for p in rows],
                                               metric["better"])
        summary[workload]["fastest_pass_s"] = _compare([fastest_pass(p["parent"]) for p in rows],
                                                       [fastest_pass(p["change"]) for p in rows], "lower")
    return summary


def claim_verdict(entry: dict, better: str) -> dict:
    """Whether one workload's summary ``entry`` of a metric backs a claimed
    gain: at least 10 pairs, change better in at least 9/10 of them, and a
    median gain above the parent's q3 - q1."""
    gain = entry["parent"]["median"] - entry["change"]["median"]
    gain = gain if better == "lower" else -gain
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    wins, pairs = entry["change_better_pairs"], entry["pairs"]
    return {"holds": bool(pairs >= 10 and wins >= 0.9 * pairs and gain > iqr),
            "change_better_pairs": wins, "pairs": pairs, "median_gain": gain, "parent_iqr": iqr}


def bound_verdict(entry: dict, better: str, bound: float) -> dict:
    """Whether one workload's summary ``entry`` of an unclaimed metric stayed
    within the metric's relative ``bound``: the allowance is the bound
    times the parent's median. ``held`` when every change run beats every
    parent run; else ``unresolved`` when either side's q3 - q1 exceeds the
    allowance; else ``regressed`` when the change's median is worse by
    more than it, and ``held`` when not."""
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    worse_by = change - parent if better == "lower" else parent - change
    allowed = bound * abs(parent)
    iqr = {side: entry[side]["q3"] - entry[side]["q1"] for side in ("parent", "change")}
    if entry["change_beats_every_parent_run"]:
        verdict = "held"
    elif max(iqr.values()) > allowed:
        verdict = "unresolved"
    else:
        verdict = "regressed" if worse_by > allowed else "held"
    return {"verdict": verdict, "bound": bound, "allowed": allowed, "worse_by": worse_by,
            "parent_iqr": iqr["parent"], "change_iqr": iqr["change"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--parent-commit", help="the parent's commit, if its checkout has no git HEAD")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[], help="e.g. 171-180 or 171,173")
    parser.add_argument("--traced-seed", type=int, help="also one --trace 1 run per side")
    parser.add_argument("--claim", help="the end-to-end metric this workload's pairs back")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent_commit = git_head(args.parent) or args.parent_commit
    if parent_commit is None:
        print(f"{args.parent} has no git HEAD; give its commit with --parent-commit", file=sys.stderr)
        return 2

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "Alternating parent/change runs of bench/run.py: both sides of every pair, "
                "plus one --trace 1 run per side and workload.",
        "command": f"python3 bench/run.py --workload <w> --seed <n> --seconds {seconds} --trace 0 (pairs); "
                   "--seconds 0 --trace 1 (traced)",
        "parent_commit": parent_commit, "claims": [], "pairs": [], "traced": []}
    if args.claim:
        doc["claims"].append({"workload": args.workload, "metric": args.claim})
    sides = {"parent": args.parent, "change": args.change}
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(sides[side], args.workload, seed, seconds, 0)
        doc["pairs"].append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['result']['metrics']['pass_s']['value']:.2f} s" for side in sides),
            file=sys.stderr)
    if args.traced_seed is not None:
        doc["traced"].append({"workload": args.workload, "seed": args.traced_seed, **{
            side: run_bench(path, args.workload, args.traced_seed, 0.0, 1) for side, path in sides.items()}})
    runs = [p[side] for p in doc["pairs"] for side in sides] + \
           [t[side] for t in doc["traced"] for side in sides]
    if runs:
        doc["machine"] = runs[-1]["environment"]  # a change-side run: sides end with "change"
    doc["src_lines"] = {side: src_lines(path) for side, path in sides.items()}
    doc["summary"] = summarise(doc["pairs"], benchmark["end_to_end"])
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    claimed = {(claim["workload"], claim["metric"]) for claim in doc["claims"]}
    for workload, entries in doc["summary"].items():
        for metric in benchmark["end_to_end"]:
            if (workload, metric["name"]) in claimed:
                continue
            verdict = entries[metric["name"]]["bound"] = bound_verdict(entries[metric["name"]], metric["better"],
                                                                       metric["bound"])
            print(f"bound {metric['name']} on {workload}: {verdict['verdict']} (change median worse by "
                  f"{verdict['worse_by']:.4g} against {verdict['allowed']:.4g} allowed, {metric['bound']:g} of the "
                  f"parent's median; interquartile ranges parent {verdict['parent_iqr']:.4g}, change "
                  f"{verdict['change_iqr']:.4g})", file=sys.stderr)
    for claim in doc["claims"]:
        entry = doc["summary"].get(claim["workload"], {}).get(claim["metric"])
        if entry is None:
            continue
        verdict = entry["claim"] = claim_verdict(entry, directions[claim["metric"]])
        print(f"claim {claim['metric']} on {claim['workload']}: {'holds' if verdict['holds'] else 'fails'} "
              f"(change better in {verdict['change_better_pairs']} of {verdict['pairs']} pairs; medians differ "
              f"by {verdict['median_gain']:.4g} against the parent's interquartile range "
              f"{verdict['parent_iqr']:.4g})", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
