"""tools/heldout_pairs.py: this checkout as both sides, on a 4 x 4 x 30
grid and one data seed with two training seeds, ties on every figure."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "heldout_pairs.py"
ROOT = TOOL.parents[1]


def test_this_checkout_against_itself_differs_by_exactly_zero():
    done = subprocess.run([sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
                           "--grid", "4x4x30", "--seeds", "0", "--train-seeds", "0-1", "--epochs", "2",
                           "--warmup-epochs", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, *rows, ndcg, lndcg = done.stdout.splitlines()
    assert header.split()[:3] == ["seed", "train", "ndcg@10"]
    assert [row.split()[:2] for row in rows] == [["0", "0"], ["0", "1"]]
    figures = []
    for row in rows:
        seed, train, ndcg_parent, ndcg_change, ndcg_diff, lndcg_parent, lndcg_change, lndcg_diff, *seconds = row.split()
        assert ndcg_parent == ndcg_change and lndcg_parent == lndcg_change
        assert ndcg_diff == lndcg_diff == "+0" and len(seconds) == 2
        figures.append((ndcg_parent, lndcg_parent))
    assert figures[0] != figures[1]  # the training seed reaches the run
    for line, name in ((ndcg, "ndcg@10"), (lndcg, "lndcg@10")):
        assert line == f"{name} change - parent: mean +0 se 0 sd 0 won 0 of 2"
