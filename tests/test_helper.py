"""The helper process that trains grids below S = 256 on two processes:
the same bits as the serial run, its errors, its lifetime, and when it
does not fork."""

import csv
import functools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gridrank import autodiff as ad
from gridrank import cli, model, pool, training
from gridrank import grid as griddata
from gridrank.errors import NumericalError
from gridrank.grid import Window

SRC = Path(model.__file__).resolve().parents[1]
SMALL_MODEL = ["--set", "model.hidden=4", "--set", "model.recurrent_hidden=4", "--set", "model.window=3",
               "--set", "model.embed_dim=3"]
SCHEDULE = ["--set", "train.epochs=3", "--set", "train.warmup_epochs=1", "--set", "train.batch_size=8",
            "--set", "train.lr_warmup=0.01", "--set", "train.lr_main=0.003"]


@pytest.fixture(autouse=True)
def time_limit():
    """A test that waits on the helper for 120 s fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("the helper test ran for 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def dataset(tmp_path, rows, cols, periods):
    sizes = ["--set", f"data.rows={rows}", "--set", f"data.cols={cols}", "--set", f"data.periods={periods}"]
    assert cli.main(sizes + ["gen-data", "--out", str(tmp_path / "data")]) == cli.EXIT_OK
    return str(tmp_path / "data" / "manifest.json")


def log_rows(run: Path) -> list[list[str]]:
    """``training_log.csv`` without its wall-time column."""
    with open(run / "training_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_s"]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("rows,cols,periods,sizes", [(8, 8, 120, []), (4, 4, 30, SMALL_MODEL)],
                         ids=["8x8x120", "4x4x30"])
def test_training_with_the_helper_writes_the_serial_bits(tmp_path, monkeypatch, capsys, rows, cols, periods, sizes):
    """Warm-up, two surrogate epochs (the second drawing from a refreshed
    distribution) and per-epoch validation: the log rows and the
    checkpoint bytes equal those of the run pinned to one worker, and the
    helper has ended when ``train`` returns."""
    manifest = dataset(tmp_path, rows, cols, periods)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = {}
    for label, count in (("helper", 2), ("serial", 1)):
        monkeypatch.setattr(pool, "workers", lambda: count)
        runs[label] = tmp_path / label
        assert cli.main(sizes + SCHEDULE + ["train", "--data", manifest, "--out", str(runs[label])]) == cli.EXIT_OK
        record = json.loads((runs[label] / "run.json").read_text())
        assert record["pool"] == ({"kind": "processes", "workers": 2} if count == 2 else
                                  {"kind": "serial", "workers": 1})
        assert record["cpus"] == len(os.sched_getaffinity(0))
        assert no_child_left()
    assert len(forks) == 1
    assert log_rows(runs["helper"]) == log_rows(runs["serial"]) and len(log_rows(runs["serial"])) == 4
    for name in (model.CHECKPOINT_BLOB, model.CHECKPOINT_JSON):
        helper, serial = (runs[label] / "checkpoint" / name for label in ("helper", "serial"))
        assert helper.read_bytes() == serial.read_bytes(), name


def test_a_non_finite_loss_in_a_helper_job_exits_4_with_the_serial_line(tmp_path, monkeypatch, capsys):
    """Every window loss the helper computes is NaN, and the caller's take
    20 ms each, so the helper claims some of the first batch's windows:
    the run exits 4 with the line the serial run prints when its own loss
    is NaN, and no child is left."""
    manifest = dataset(tmp_path, 4, 4, 30)
    ad.set_debug(False)  # the loss check, not the per-op one, names the failure
    caller, warmup_loss = os.getpid(), training.warmup_loss
    nan_here = {True: lambda: os.getpid() != caller, False: lambda: True}

    def failing(pooled, relevance, scores):
        if nan_here[pooled]():
            return ad.fused("warmup_mse", np.asarray(np.nan), (scores,), lambda g: (g * scores.data,))
        time.sleep(0.02)
        return warmup_loss(relevance, scores)

    lines = {}
    for pooled in (True, False):
        monkeypatch.setattr(pool, "workers", lambda: 2 if pooled else 1)
        monkeypatch.setattr(training, "warmup_loss", functools.partial(failing, pooled))
        code = cli.main(SMALL_MODEL + SCHEDULE + ["train", "--data", manifest, "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_NUMERIC and no_child_left()
        lines[pooled] = capsys.readouterr().err
    assert lines[True] == lines[False] == "numerical failure: training diverged: non-finite loss at epoch 0\n"
    assert not (tmp_path / "run").exists()


def small_case(seed=3):
    data = griddata.generate_synthetic(seed, 4, 4, 30, 2)
    config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3, embed_dim=3)
    params = model.init_params(config, seed=1)
    params.static_graph = np.abs(np.random.default_rng(seed).normal(size=(16, 16))) * 0.1
    return data, params, [Window(t, 3) for t in range(3, 30)]


def test_a_failing_build_in_the_helper_reaches_the_caller(monkeypatch):
    """A build that fails in the helper alone raises its error in the
    caller, which then ends the helper; later calls run serially."""
    data, params, windows = small_case()
    monkeypatch.setattr(pool, "workers", lambda: 2)
    caller, period_step = os.getpid(), model._period_step

    def failing(params, grid, t, work):
        if os.getpid() != caller:
            raise NumericalError(f"period_step produced non-finite values at {t}")
        time.sleep(0.005)
        return period_step(params, grid, t, work)

    monkeypatch.setattr(model, "_period_step", failing)
    with model.helper_process(data) as helper:
        with pytest.raises(NumericalError, match="period_step produced non-finite values"):
            model.predictions_for(params, data, windows)
        assert helper.closed and helper.pid is None and no_child_left()
        monkeypatch.setattr(model, "_period_step", period_step)
        model.predictions_for(params, data, windows[:2])
        assert helper.pid is None
    assert no_child_left()


def test_the_helper_ignores_sigint_and_ends_with_the_run(monkeypatch):
    data, params, windows = small_case()
    monkeypatch.setattr(pool, "workers", lambda: 2)
    with ad.no_grad():
        serial = np.stack([model.forward(params, data, w).data for w in windows])
    with model.helper_process(data) as helper:
        first = model.predictions_for(params, data, windows)
        pid = helper.pid
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # still running
        again = model.predictions_for(params, data, windows)
        assert helper.pid == pid
    assert first.tobytes() == again.tobytes() == serial.tobytes()
    assert no_child_left()


def run_script(script: str, affinity=None, **kwargs):
    env = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    prefix = "" if affinity is None else f"import os\nos.sched_setaffinity(0, {affinity!r})\n"
    return subprocess.Popen([sys.executable, "-c", prefix + script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


HELPER_SCRIPT = (
    "import time\n"
    "from gridrank import grid, model, pool\n"
    "pool.workers = lambda: 2\n"
    "data = grid.generate_synthetic(3, 4, 4, 30, 2)\n"
    "params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3,"
    " embed_dim=3))\n"
    "with model.helper_process(data) as helper:\n"
    "    model.predictions_for(params, data, [grid.Window(t, 3) for t in range(3, 30)])\n"
    "    print(helper.pid, flush=True)\n"
    "    time.sleep(60)\n")


def gone(pid: int) -> bool:
    """Whether ``pid`` has exited: no such process, or an unreaped one."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_killed_caller_leaves_no_orphan():
    """The helper reads EOF once its caller is gone, and exits."""
    proc = run_script(HELPER_SCRIPT)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "the script printed no pid"
        pid = int(proc.stdout.readline())
        assert not gone(pid)
    finally:
        proc.kill()
        proc.communicate(timeout=30)
    deadline = time.monotonic() + 10
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(pid)


def test_nothing_forks_with_one_cpu_or_while_a_kink_trace_is_installed(monkeypatch):
    data, _, _ = small_case()
    config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3, embed_dim=3)
    schedule = training.TrainConfig(epochs=2, warmup_epochs=1, batch_size=4, eval_k=3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the helper forked"))
    serial = {"kind": "serial", "workers": 1}
    with ad._kink_tracing():
        assert training.train(data, training.Splits(20), config, schedule).pool == serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool.cpus() == 1 and pool.workers() == 1
    assert training.train(data, training.Splits(20), config, schedule).pool == serial


STRESS_SCRIPT = (
    "import os, time\n"
    "from gridrank import grid, model, pool, training\n"
    "pool._ARENA_BYTES = {arena}\n"
    "caller, recurrent = os.getpid(), model._recurrent\n"
    "def slowed(*args):  # the caller's windows yield the CPU, so the helper takes some\n"
    "    if os.getpid() == caller:\n"
    "        time.sleep(0.001)\n"
    "    return recurrent(*args)\n"
    "model._recurrent = slowed\n"
    "data = grid.generate_synthetic(5, 4, 4, 30, 2)\n"
    "config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3, embed_dim=3)\n"
    "schedule = training.TrainConfig(epochs=3, warmup_epochs=1, batch_size=6, eval_k=3)\n"
    "out = []\n"
    "for count in (2, 1):\n"
    "    pool.workers = lambda: count\n"
    "    state = training.train(data, training.Splits(20), config, schedule)\n"
    "    out.append((state.pool['kind'], [sorted(row.items())[:-1] for row in state.log],\n"
    "                b''.join(a.tobytes() for a in state.params.snapshot().values())))\n"
    "print(out[0][0], out[1][0], out[0][1:] == out[1][1:])\n")


@pytest.mark.parametrize("arena", [32 << 20, 1024], ids=["arena", "pipe"])
def test_two_processes_on_one_cpu_give_the_serial_bits(arena):
    """Both processes on one CPU switch at any point of a claim, so the
    sides meet mid-job at random, and the caller's windows sleep 1 ms
    first, so the helper takes some of them; with a 1 KB arena most arrays
    go through the pipe. Both runs equal the serial one."""
    proc = run_script(STRESS_SCRIPT.format(arena=arena), affinity={min(os.sched_getaffinity(0))})
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.split() == ["processes", "serial", "True"]


def test_every_job_runs_once_in_order_whoever_claims_it(monkeypatch):
    """Jobs of random length, 40 stages of up to 9: the caller gets every
    result in job order and each job ran on one side, or on both when the
    two claimed it at once."""
    draws = np.random.default_rng(11)
    stages = [draws.uniform(0.0, 0.002, size=int(draws.integers(0, 10))).tolist() for _ in range(40)]

    def job(i, delay):
        time.sleep(delay)
        return i, os.getpid()

    def serve(helper, delays):
        helper.serve_jobs([functools.partial(job, i, d) for i, d in enumerate(delays)])

    data = griddata.generate_synthetic(3, 4, 4, 30, 2)
    monkeypatch.setattr(pool, "workers", lambda: 2)
    helpers = set()
    with pool.Helper.open(data, serve):
        for delays in stages:
            with pool.Helper.for_call(16, data, delays) as helper:
                results = list(helper.in_order([functools.partial(job, i, d) for i, d in enumerate(delays)]))
            assert [i for i, _ in results] == list(range(len(delays)))
            helpers |= {pid for _, pid in results} - {os.getpid()}
    assert len(helpers) == 1 and no_child_left()
