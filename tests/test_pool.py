"""The thread pool of ``predictions_for`` and of ``batch_backward``'s three
stages against the serial path, and the buffers of builds with and
without gradients."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridrank import adjacency, autodiff as ad, cli, training
from gridrank import grid as griddata
from gridrank import model
from gridrank.adjacency import pearson_static
from gridrank.errors import NumericalError
from gridrank.grid import Window

from test_batch_step import loss_maker
from test_graph_block import T, graph_tensors, step_case

ROWS = COLS = 16  # S x S = 2^16 entries: the smallest square grid the pool runs on
S = ROWS * COLS
WINDOW = 3
TARGETS = [5, 6, 7, 9, 14, 20, 21, 22]


@pytest.fixture(scope="module")
def data():
    return griddata.generate_synthetic(3, ROWS, COLS, 30, 2)


@pytest.fixture
def pooled():
    if model._pool_workers(S) < 2:
        pytest.skip("one CPU available: the pool does not run")


def pool_params(data, negative, fixed_gate):
    config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=WINDOW, embed_dim=3,
                                        fixed_gate=fixed_gate)
    params = model.init_params(config, seed=1)
    static = pearson_static(data.risk[:, :, :16])
    params.static_graph = static if negative else np.abs(static)
    assert np.any(params.static_graph < 0.0) == negative
    return params


def spy_builds(monkeypatch, off_main=None, with_grads=False):
    """Record the threads that build period steps, keyed by whether the
    build has gradients, the failures off the calling thread, and the
    builds the calling thread claims after a failure was recorded. A build
    of the calling thread waits (for at most 10 s) until another thread
    has begun one of the same kind, so that a pooled stage uses more than
    one thread however the items are claimed; builds off the calling
    thread of the kind ``with_grads`` use the parameters ``off_main`` when
    given. Then a build of that kind on the calling thread returns only
    once a failing thread has stopped (for at most 10 s), so the pool has
    recorded the failure before the calling thread claims again."""
    threads, failures, late = {False: set(), True: set()}, [], []
    other = {False: threading.Event(), True: threading.Event()}
    failing, failed, waited = threading.Event(), [], []
    original = model._period_step

    def spy(params, grid, t, work=None):
        kind = ad._grad_enabled
        threads[kind].add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            other[kind].wait(timeout=10)
            if off_main is None or kind != with_grads:
                return original(params, grid, t, work)
            if waited:
                late.append(t)
            step = original(params, grid, t, work)
            if failing.wait(timeout=10):
                failed[0].join(timeout=10)
                waited.append(t)
            return step
        other[kind].set()
        try:
            return original(params if off_main is None or kind != with_grads else off_main, grid, t, work)
        except NumericalError:
            failures.append(t)
            failed.append(threading.current_thread())
            failing.set()
            raise

    monkeypatch.setattr(model, "_period_step", spy)
    return threads, failures, late


def two_threads(threads):
    return len(threads) == 2 and threading.main_thread() in threads


def test_worker_rule():
    assert model._pool_workers(255) == 1
    assert model._pool_workers(256) == model._pool_workers(1024) == min(2, len(os.sched_getaffinity(0)))
    with ad._kink_tracing():
        assert model._pool_workers(1024) == 1


CASES = [(negative, fixed_gate) for negative in (True, False) for fixed_gate in (None, 0.5)]


@pytest.mark.parametrize("negative,fixed_gate", CASES)
def test_pooled_predictions_equal_the_serial_loop(data, negative, fixed_gate, pooled, monkeypatch):
    params = pool_params(data, negative, fixed_gate)
    windows = [Window(t, WINDOW) for t in TARGETS]
    with ad.no_grad():
        serial = np.stack([model.forward(params, data, w).data for w in windows])
    threads, _, _ = spy_builds(monkeypatch)
    scores = model.predictions_for(params, data, windows)
    assert two_threads(threads[False]) and not threads[True]
    assert scores.tobytes() == serial.tobytes()


@pytest.mark.parametrize("negative,fixed_gate", CASES)
def test_pooled_batch_step_equals_the_serial_one(data, negative, fixed_gate, pooled, monkeypatch):
    params = pool_params(data, negative, fixed_gate)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    loss_of = loss_maker("hybrid", data)

    def step():
        ad.zero_grads(params.tensors())
        values = model.batch_backward(params, data, windows, loss_of)
        return values, {name: t.grad.tobytes() for name, t in params.named_tensors() if t.grad is not None}

    threads, _, _ = spy_builds(monkeypatch)
    pooled_values, pooled_grads = step()
    # stages (1) and (3) each run on the calling thread and a thread of their own
    assert two_threads(threads[False]) and two_threads(threads[True])
    assert len(threads[False] | threads[True]) == 3
    monkeypatch.setattr(model, "_pool_workers", lambda s: 1)
    serial_values, serial_grads = step()
    assert pooled_values == serial_values
    assert pooled_grads == serial_grads
    assert len(serial_grads) == len(params.named_tensors()) - (fixed_gate is not None)


def spy_windows(monkeypatch):
    """Record the threads that run a window's recurrent forward; one on the
    calling thread waits (for at most 10 s) until another thread has begun
    one, so that a pooled stage (2) uses more than one thread."""
    threads, other = set(), threading.Event()
    original = model._recurrent

    def spy(params, steps):
        threads.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            other.wait(timeout=10)
        else:
            other.set()
        return original(params, steps)

    monkeypatch.setattr(model, "_recurrent", spy)
    return threads


class DrawingLoss:
    """A ``loss_of`` whose target is the day's risk times weights drawn from
    one generator, so a call out of window order changes the gradients.
    Each call records the window's target and whether another call was
    running, and lasts 20 ms, so unordered calls would overlap. The
    backward of every other window of ``windows``, from the first, sleeps
    50 ms, so the window after it finishes its backward first."""

    def __init__(self, data, windows):
        self.risk = data.risk_by_location()
        self.rng = np.random.default_rng(11)
        self.slow = {w.target for w in windows[::2]}
        self.targets, self.overlapped, self.active = [], False, 0
        self.lock = threading.Lock()

    def __call__(self, window, scores):
        with self.lock:
            self.targets.append(window.target)
            self.overlapped |= self.active > 0
            self.active += 1
        time.sleep(0.02)
        weights = self.rng.uniform(0.5, 1.5, size=scores.shape)
        loss = training.warmup_loss(weights * self.risk[:, window.target], scores)
        if window.target in self.slow:
            loss = ad.fused("slow", loss.data, (loss,), lambda g: (time.sleep(0.05) or g.copy(),))
        with self.lock:
            self.active -= 1
        return loss


def test_pooled_stage_2_equals_the_serial_one(data, pooled, monkeypatch):
    """Two threads run the windows; ``loss_of`` still sees them one at a
    time in batch order, and the pairs are added in window order although
    every other backward finishes after the next window's: the loss values
    and every parameter's gradient equal the serial stage's bit for bit."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]

    def step():
        ad.zero_grads(params.tensors())
        loss_of = DrawingLoss(data, windows)
        values = model.batch_backward(params, data, windows, loss_of)
        return loss_of, values, {name: t.grad.tobytes() for name, t in params.named_tensors()}

    threads = spy_windows(monkeypatch)
    pooled_loss, pooled_values, pooled_grads = step()
    assert two_threads(threads)
    assert pooled_loss.targets == TARGETS[:5] and not pooled_loss.overlapped
    monkeypatch.setattr(model, "_pool_workers", lambda s: 1)
    serial_loss, serial_values, serial_grads = step()
    assert serial_loss.targets == TARGETS[:5]
    assert pooled_values == serial_values
    assert pooled_grads == serial_grads


def test_numerical_error_in_a_loss_stops_the_window_waiting_for_its_turn(data, pooled, monkeypatch):
    """Window 0's ``loss_of`` raises once window 1's forward is done and its
    worker waits for its turn: that worker stops instead of waiting for
    ever, no ``loss_of`` runs after window 0's, and no gradient reaches
    any parameter."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    forwards, lock, second = [], threading.Lock(), threading.Event()
    original = model._recurrent

    def spy(params, steps):
        scores = original(params, steps)
        with lock:
            forwards.append(threading.current_thread())
            if len(forwards) == 2:
                second.set()
        return scores

    seen = []

    def failing_loss(window, scores):
        seen.append(window.target)
        second.wait(timeout=10)
        time.sleep(0.05)
        raise NumericalError(f"training diverged: non-finite loss on day {window.target}")

    monkeypatch.setattr(model, "_recurrent", spy)
    raised = []

    def call():
        try:
            model.batch_backward(params, data, windows, failing_loss)
        except NumericalError as exc:
            raised.append(exc)

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert len(set(forwards)) == 2 and second.is_set()
    assert [str(exc) for exc in raised] == [f"training diverged: non-finite loss on day {TARGETS[0]}"]
    assert seen == [TARGETS[0]]
    assert all(t.grad is None for t in params.tensors())


def test_more_threads_than_cpus_with_short_switches_give_the_serial_scores(data, monkeypatch):
    """Five threads on at most two CPUs, switching every microsecond: a slot
    written by the wrong thread or lost would change the scores."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS]
    with ad.no_grad():
        serial = np.stack([model.forward(params, data, w).data for w in windows])
    threads, _, _ = spy_builds(monkeypatch)
    monkeypatch.setattr(model, "_pool_workers", lambda s: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scores = model.predictions_for(params, data, windows)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads[False]) >= 2 and threading.active_count() == 1
    assert scores.tobytes() == serial.tobytes()


def test_more_threads_than_cpus_with_short_switches_give_the_serial_batch_step(data, monkeypatch):
    """The same for the three stages of a batch, whose ordered steps share
    the generator and every parameter's ``.grad``: a step out of turn or a
    lost addition would change the bits."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS]

    def step():
        ad.zero_grads(params.tensors())
        loss_of = DrawingLoss(data, [])
        values = model.batch_backward(params, data, windows, loss_of)
        return loss_of.targets, values, {name: t.grad.tobytes() for name, t in params.named_tensors()}

    monkeypatch.setattr(model, "_pool_workers", lambda s: 1)
    serial = step()
    threads = spy_windows(monkeypatch)
    monkeypatch.setattr(model, "_pool_workers", lambda s: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = step()
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) >= 2 and threading.active_count() == 1
    assert pooled == serial


@pytest.mark.parametrize("negative", [True, False])
@pytest.mark.parametrize("fixed_gate", [None, 0.5])
def test_block_scratch_build_equals_the_build_with_gradients(negative, fixed_gate):
    """S = 12 x 25 = 300 is no multiple of its 109-row block (nor of 8, where
    OpenBLAS's row blocks and full product can differ in the last bits)."""
    params, grid, _ = step_case(12, 25, negative, fixed_gate, seed=2)
    with_grads = model._period_step(params, grid, T, adjacency.workspace(300))
    work = adjacency.workspace(300)
    rows = work["block"].shape[0]
    assert rows == 109 and 300 % rows
    assert work["block"].shape == work["mix"].shape == (rows, 300)
    with ad.no_grad():
        without = model._period_step(params, grid, T, work)
    assert without.data.tobytes() == with_grads.data.tobytes()
    assert set(work) == {"graph", "block", "mix"}


@pytest.mark.parametrize("fixed_gate", [None, 0.5])
def test_a_build_with_gradients_holds_one_s_by_s_array(fixed_gate):
    """At S = 500 (eight row blocks, seven of them rebuilt in the backward)
    the build and its ``vjp`` use a workspace of one S x S array and two
    row blocks, and allocate less than half an S x S array beside it."""
    params, grid, weights = step_case(20, 25, True, fixed_gate, seed=2)
    work = adjacency.workspace(500)
    first = ad.vjp(model._period_step(params, grid, T, work), weights)
    assert sorted(a.shape for a in work.values()) == [(65, 500), (65, 500), (500, 500)]
    tracemalloc.start()
    try:
        pairs = ad.vjp(model._period_step(params, grid, T, work), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * 500 * 8 / 2
    assert [param for param, _ in pairs] == [param for param, _ in first]
    assert len(pairs) == len(graph_tensors(params)) - (fixed_gate is not None)
    assert all(np.array_equal(grad, want) for (_, grad), (_, want) in zip(pairs, first))


def nan_params(data):
    params = pool_params(data, True, None)
    params.conv_weights[1].data[0, 0] = np.nan
    return params


def test_numerical_error_in_a_worker_reaches_the_caller(data, pooled, monkeypatch):
    _, failures, late = spy_builds(monkeypatch, off_main=nan_params(data))
    with pytest.raises(NumericalError, match="period_step produced non-finite values"):
        model.predictions_for(pool_params(data, True, None), data, [Window(t, WINDOW) for t in TARGETS])
    assert len(failures) == 1 and late == []  # both workers stopped: neither claimed after the failure


def test_numerical_error_in_a_worker_exits_4(data, pooled, tmp_path, capsys, monkeypatch):
    manifest = griddata.save_grid(data, tmp_path / "data")
    model.save_checkpoint(tmp_path / "ckpt", pool_params(data, True, None))
    _, failures, _ = spy_builds(monkeypatch, off_main=nan_params(data))
    code = cli.main(["--set", "eval.ks=[5]", "evaluate", "--data", str(manifest),
                     "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_NUMERIC and len(failures) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure:") and "Traceback" not in err


def test_numerical_error_in_a_stage_3_worker_reaches_the_caller(data, pooled, monkeypatch):
    """A rebuild with gradients that fails off the calling thread stops the
    batch with its own error: the calling thread claims no period once the
    failure is recorded, and no rebuild's gradient reaches the graph
    block's parameters."""
    _, failures, late = spy_builds(monkeypatch, off_main=nan_params(data), with_grads=True)
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    with pytest.raises(NumericalError, match="period_step produced non-finite values"):
        model.batch_backward(params, data, windows, loss_maker("hybrid", data))
    assert len(failures) == 1 and late == []
    assert all(t.grad is None for t in graph_tensors(params))
    assert params.lstm_wx.grad is not None  # stage (2) ran


def test_numerical_error_in_a_stage_3_worker_exits_4(data, pooled, tmp_path, capsys, monkeypatch):
    manifest = griddata.save_grid(data, tmp_path / "data")
    _, failures, _ = spy_builds(monkeypatch, off_main=nan_params(data), with_grads=True)
    sizes = ["--set", "model.hidden=4", "--set", "model.recurrent_hidden=3", "--set", f"model.window={WINDOW}",
             "--set", "model.embed_dim=3", "--set", "train.epochs=1", "--set", "train.warmup_epochs=1"]
    code = cli.main(sizes + ["train", "--data", str(manifest), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NUMERIC and len(failures) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_small_grids_start_no_thread():
    """Below 2^16 entries no thread starts and glibc's allocator is left as
    it is."""
    script = (
        "import threading\n"
        "from gridrank import grid, model\n"
        "started = []\n"
        "threading.Thread.start = lambda thread: started.append(thread)\n"
        "data = grid.generate_synthetic(3, 15, 17, 30, 2)\n"
        "params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3,"
        " embed_dim=3))\n"
        "model.predictions_for(params, data, [grid.Window(t, 3) for t in (4, 5, 9)])\n"
        "print(len(started), model._one_malloc_arena.cache_info().currsize)\n")
    src = Path(model.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
