"""tools/same_bits.py: the pipeline run on a 4 x 4 x 30 grid and the
gradcheck stdout with this checkout as both sides, the dataset files (its
manifest and tensor file) and both checkpoint files among the outputs,
and its verdict and log hashing on stub hashes."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from gridrank import grid

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
ROOT = TOOL.parents[1]
spec = importlib.util.spec_from_file_location("same_bits", TOOL)
same_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bits)


def check_against_itself(grid: str) -> dict[str, str]:
    """Run the tool on ``grid`` with this checkout as both sides: every
    output of the pipeline, and the gradcheck stdout after them, hashes the
    same. Returns each output's hash."""
    done = subprocess.run([sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
                           "--grid", grid], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == \
        [[grid, f"{name}:"] for name in same_bits.OUTPUTS] + [["gradcheck", "stdout:"]]
    for line in lines:
        words = line.split()
        assert words[-1] == "same" and words[3] == words[5] and len(words[3]) == 64
    return {line.split()[1].rstrip(":"): line.split()[3] for line in lines}


def test_this_checkout_against_itself_gives_equal_hashes(tmp_path):
    """The dataset hashes are those of every file ``save_grid`` writes for
    ``gen-data``'s default grid at 4 x 4 x 30."""
    hashes = check_against_itself("4x4x30")
    grid.save_grid(grid.generate_synthetic(7, 4, 4, 30), tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(same_bits.DATASET)
    assert {name: hashes[name] for name in same_bits.DATASET} == \
        {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in same_bits.DATASET}


def test_pooled_runs_repeat_bit_for_bit():
    """At 16 x 16 (S = 256) the builds, windows and rebuilds run on the
    thread pool wherever two CPUs are available."""
    check_against_itself("16x16x40")


def test_any_difference_exits_1(monkeypatch, capsys):
    def hashes(checkout, grid):
        digests = {name: "0" * 64 for name in same_bits.OUTPUTS}
        if checkout.name == "change" and grid == (8, 8, 120):
            digests["report.json"] = "1" * 64
        return digests

    gradchecks = {"parent": "2" * 64, "change": "2" * 64}
    monkeypatch.setattr(same_bits, "pipeline_hashes", hashes)
    monkeypatch.setattr(same_bits, "gradcheck_hash", lambda checkout: gradchecks[checkout.name])
    assert same_bits.main(["--parent", "parent", "--change", "change"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(same_bits.OUTPUTS) + 1
    assert [line.split()[:2] for line in lines if line.endswith("DIFFERENT")] == [["8x8x120", "report.json:"]]
    assert same_bits.main(["--parent", "parent", "--change", "change", "--grid", "16x16x40"]) == 0
    gradchecks["change"] = "3" * 64
    assert same_bits.main(["--parent", "parent", "--change", "change", "--grid", "16x16x40"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if line.endswith("DIFFERENT")] == [["gradcheck", "stdout:"]]


def test_training_log_is_hashed_without_its_wall_time(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("epoch,loss,wall_time_s,ndcg\n0,1.5,0.25,0.5\n1,1.25,0.5,0.75\n")
    second.write_text("epoch,loss,wall_time_s,ndcg\n0,1.5,9.0,0.5\n1,1.25,8.0,0.75\n")
    assert same_bits.log_without_wall_time(first) == same_bits.log_without_wall_time(second) == \
        b"epoch,loss,ndcg\n0,1.5,0.5\n1,1.25,0.75\n"
