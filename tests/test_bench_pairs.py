"""tools/bench_pairs.py against two stub checkouts whose bench/run.py
prints a fixed record, so no workload runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "pass_s", "better": "lower", "bound": 0.25}, {"name": "ndcg10", "better": "higher", "bound": 0.2}]

STUB = '''import json, sys, time
busy = time.process_time() + 0.02
while time.process_time() < busy:
    pass
seed = int(sys.argv[sys.argv.index("--seed") + 1])
trace = int(sys.argv[sys.argv.index("--trace") + 1])
seconds = sys.argv[sys.argv.index("--seconds") + 1]
with open("../order.log", "a") as fh:
    fh.write(f"{SIDE} {seed} {trace} {seconds}\\n")
metrics = {"pass_s": {"value": PASS + seed, "unit": "s"}, "ndcg10": {"value": 0.5, "unit": "ndcg"}}
times = {"setup": [0.1], "pass": [PASS + seed + 1.0, PASS + seed - 0.5 * seed, PASS + seed + 2.0]}
print(json.dumps({"record": {"seed": seed, "environment": {"side": SIDE}, "times_s": times}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''


def stub_checkout(root: Path, side: str, pass_s: float, src_lines: int = 3) -> Path:
    checkout = root / side
    (checkout / "bench").mkdir(parents=True)
    (checkout / "src" / "pkg").mkdir(parents=True)
    (checkout / "src" / "pkg" / "a.py").write_text("x = 1\n" * (src_lines - 1))
    (checkout / "src" / "b.py").write_text("y = 2\n")
    (checkout / "src" / "pkg" / "notes.txt").write_text("not counted\n")
    (checkout / "bench" / "run.py").write_text(f"SIDE = {side!r}\nPASS = {pass_s}\n" + STUB)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 4, "end_to_end": METRICS}))
    return checkout


def test_parse_seeds():
    assert bench_pairs.parse_seeds("171-174") == [171, 172, 173, 174]
    assert bench_pairs.parse_seeds("5,9-10") == [5, 9, 10]


def test_pairs_alternate_and_extend_the_file(tmp_path):
    parent = stub_checkout(tmp_path, "parent", 10.0, src_lines=12)
    change = stub_checkout(tmp_path, "change", 7.0, src_lines=9)
    out = tmp_path / "BENCH_9.json"
    common = ["--parent", str(parent), "--parent-commit", "abc123", "--change", str(change), "--out", str(out)]
    assert bench_pairs.main(common + ["--workload", "w1", "--seeds", "1-3", "--claim", "pass_s"]) == 0
    assert bench_pairs.main(common + ["--workload", "w2", "--seeds", "4", "--traced-seed", "21"]) == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 1 0 4", "change 1 0 4", "change 2 0 4", "parent 2 0 4", "parent 3 0 4", "change 3 0 4",
        "parent 4 0 4", "change 4 0 4", "parent 21 1 0.0", "change 21 1 0.0"]
    doc = json.loads(out.read_text())
    assert "--seconds 4 --trace 0" in doc["command"]
    assert doc["claims"] == [{"workload": "w1", "metric": "pass_s"}]
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change", "parent", "parent"]
    assert doc["machine"] == {"side": "change"} and len(doc["traced"]) == 1
    assert doc["src_lines"] == {"parent": 12, "change": 9} and doc["parent_commit"] == "abc123"
    w1 = doc["summary"]["w1"]
    assert w1["pass_s"]["parent"] == {"median": 12.0, "q1": 11.5, "q3": 12.5}
    assert w1["pass_s"]["change_better_pairs"] == 3 and w1["pass_s"]["pairs"] == 3
    assert w1["pass_s"]["ratio_of_medians"] == pytest.approx(9.0 / 12.0)
    assert w1["ndcg10"]["tied_pairs"] == 3 and w1["ndcg10"]["change_better_pairs"] == 0
    assert doc["summary"]["w2"]["pass_s"]["pairs"] == 1
    # each run's fastest pass is PASS + seed / 2: parent 10.5, 11, 11.5 s and change 7.5, 8, 8.5 s
    fastest = w1["fastest_pass_s"]
    assert fastest["parent"] == {"median": 11.0, "q1": 10.75, "q3": 11.25}
    assert fastest["change"] == {"median": 8.0, "q1": 7.75, "q3": 8.25}
    assert fastest["change_better_pairs"] == 3 and fastest["tied_pairs"] == 0 and fastest["pairs"] == 3
    assert fastest["ratio_of_medians"] == pytest.approx(8.0 / 11.0)
    runs = [p[side] for p in doc["pairs"] for side in ("parent", "change")] + \
           [t[side] for t in doc["traced"] for side in ("parent", "change")]
    for run in runs:
        usage = run["usage"]
        assert set(usage) == {"wall_s", "user_s", "system_s", "steal_ticks"}
        assert usage["user_s"] + usage["system_s"] >= 0.02 and usage["wall_s"] > 0.0
        assert isinstance(usage["steal_ticks"], int) and usage["steal_ticks"] >= 0
    for side in ("parent", "change"):
        ratios = [bench_pairs.cpu_per_wall(p[side]) for p in doc["pairs"] if p["workload"] == "w1"]
        assert w1["cpu_per_wall"][side] == pytest.approx(sorted(ratios)[1]) and ratios[0] > 0.0
    assert w1["pass_s"]["claim"] == {"holds": False, "change_better_pairs": 3, "pairs": 3,
                                     "median_gain": 3.0, "parent_iqr": 1.0}  # fewer than ten pairs
    assert "claim" not in w1["ndcg10"] and "claim" not in doc["summary"]["w2"]["pass_s"]
    # every entry but the claimed one gets a bound verdict
    assert "bound" not in w1["pass_s"]
    assert w1["ndcg10"]["bound"] == {"verdict": "held", "bound": 0.2, "allowed": 0.1, "worse_by": 0.0,
                                     "parent_iqr": 0.0, "change_iqr": 0.0}
    assert doc["summary"]["w2"]["pass_s"]["bound"]["verdict"] == "held"
    assert w1["pass_s"]["change_beats_every_parent_run"] and not w1["ndcg10"]["change_beats_every_parent_run"]


def test_parent_commit_comes_from_git_or_the_option(tmp_path, capsys):
    """A stub checkout has no git HEAD: without --parent-commit the tool
    exits 2 with one line before any run; once the parent is a git
    repository, its HEAD is recorded."""
    parent = stub_checkout(tmp_path, "parent", 10.0)
    change = stub_checkout(tmp_path, "change", 7.0)
    out = tmp_path / "BENCH.json"
    common = ["--parent", str(parent), "--change", str(change), "--out", str(out), "--workload", "w", "--seeds", "1"]
    assert bench_pairs.main(common) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--parent-commit" in err
    assert not out.exists() and not (tmp_path / "order.log").exists()

    git = ["git", "-C", str(parent), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()
    assert bench_pairs.main(common) == 0
    assert json.loads(out.read_text())["parent_commit"] == head


@pytest.mark.parametrize("change_pass,holds", [(4.0, True), (7.0, False)])
def test_claim_verdict_is_written_and_printed(tmp_path, capsys, change_pass, holds):
    """Parent pass_s 11..20 s (median 15.5, quartiles 13.25 and 17.75): a
    change 6 s faster in every pair wins; one 3 s faster does not beat the
    parent's interquartile range of 4.5 s."""
    parent = stub_checkout(tmp_path, "parent", 10.0)
    change = stub_checkout(tmp_path, "change", change_pass)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--parent-commit", "abc123", "--change", str(change),
                             "--out", str(out), "--workload", "w", "--seeds", "1-10", "--claim", "pass_s"]) == 0
    verdict = json.loads(out.read_text())["summary"]["w"]["pass_s"]["claim"]
    assert verdict == {"holds": holds, "change_better_pairs": 10, "pairs": 10,
                       "median_gain": 10.0 - change_pass, "parent_iqr": 4.5}
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"claim pass_s on w: {'holds' if holds else 'fails'} (change better in 10 of 10 pairs")
    assert err[-2] == ("bound ndcg10 on w: held (change median worse by 0 against 0.1 allowed, 0.2 of the parent's "
                       "median; interquartile ranges parent 0, change 0)")


def pairs_of(parent, change):
    return [{"workload": "w", **{side: {"result": {"metrics": {"m": {"value": value}}}, "times_s": {"pass": [value]}}
                                 for side, value in (("parent", p), ("change", c))}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("better,parent,change,holds", [
    ("lower", [10.0] * 10, [5.0] * 9 + [10.0], True),           # 9 wins and a tie
    ("lower", [10.0] * 10, [5.0] * 8 + [10.0] * 2, False),      # 8 wins and 2 ties
    ("lower", [10.0] * 10, [5.0] * 9 + [11.0], True),           # 9 wins and a loss
    ("lower", list(range(10, 20)), [x - 4.0 for x in range(10, 20)], False),  # gain 4 < IQR 4.5
    ("higher", [0.5] * 10, [0.6] * 10, True),
    ("higher", [0.5] * 10, [0.4] * 10, False),
    ("lower", [10.0] * 9, [5.0] * 9, False),                    # nine pairs
])
def test_claim_rule(better, parent, change, holds):
    entry = bench_pairs.summarise(pairs_of(parent, change), [{"name": "m", "better": better}])["w"]["m"]
    assert bench_pairs.claim_verdict(entry, better)["holds"] is holds


@pytest.mark.parametrize("better,parent,change,verdict", [
    ("lower", [10.0] * 10, [12.0] * 10, "held"),                           # worse by 2, 2.5 allowed
    ("lower", [10.0] * 10, [13.0] * 10, "regressed"),                      # worse by 3
    ("lower", list(range(10, 20)), list(range(10, 20)), "unresolved"),     # IQR 4.5 > 3.875 allowed
    ("lower", list(range(10, 20)), [9.5] * 10, "held"),                    # every change run beats every parent run
    ("lower", list(range(10, 20)), [9.5] * 9 + [10.0], "unresolved"),      # one tie with the fastest parent run
    ("lower", [10.0] * 10, list(range(6, 16)), "unresolved"),              # the change's IQR 4.5 > 2.5 allowed
    ("higher", [0.5] * 10, [0.39] * 10, "regressed"),                      # worse by 0.11, 0.1 allowed
    ("higher", [0.5] * 10, [0.45] * 10, "held"),
])
def test_bound_rule(better, parent, change, verdict):
    entry = bench_pairs.summarise(pairs_of(parent, change), [{"name": "m", "better": better}])["w"]["m"]
    assert bench_pairs.bound_verdict(entry, better, 0.25 if better == "lower" else 0.2)["verdict"] == verdict
