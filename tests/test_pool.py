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
from gridrank import model, pool
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
def pooled(monkeypatch):
    """Two workers at S = 256, as the rule gives on two or more CPUs, also on
    a one-CPU runner, where the threads still interleave under the GIL;
    ``test_worker_rule`` checks the rule itself."""
    monkeypatch.setattr(pool, "workers", lambda: 2)


def pool_params(data, negative, fixed_gate):
    config = model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=WINDOW, embed_dim=3,
                                        fixed_gate=fixed_gate)
    params = model.init_params(config, seed=1)
    static = pearson_static(data.risk[:, :, :16])
    params.static_graph = static if negative else np.abs(static)
    assert np.any(params.static_graph < 0.0) == negative
    return params


def nan_params(data):
    params = pool_params(data, True, None)
    params.table["conv.1"].data[0, 0] = np.nan
    return params


class BuildSpy:
    """Wraps ``model._period_step`` and records, keyed by whether the build
    has gradients, the threads that build and the periods they begin and
    finish. A build off the calling thread waits (for at most 10 s) until
    a second thread has begun one of the same kind, so that a pooled stage
    uses two threads whatever the timing. Builds of the kind
    ``with_grads`` sleep ``others_after`` seconds first, except those of
    period ``fail``, which sleep ``fail_after`` seconds and then build
    with ``broken`` parameters: the period goes into ``failures`` and the
    periods finished by then into ``finished_before``."""

    def __init__(self, monkeypatch, fail=None, broken=None, with_grads=False, fail_after=0.0, others_after=0.0):
        self.threads, self.begun, self.finished = ({False: set(), True: set()}, {False: [], True: []},
                                                   {False: [], True: []})
        self.failures, self.finished_before = [], []
        self.two = {False: threading.Event(), True: threading.Event()}
        self.lock = threading.Lock()
        self.original = model._period_step
        self.fail, self.broken, self.with_grads = fail, broken, with_grads
        self.fail_after, self.others_after = fail_after, others_after
        monkeypatch.setattr(model, "_period_step", self)

    def __call__(self, params, grid, t, work):
        kind = ad._grad_enabled
        with self.lock:
            self.threads[kind].add(threading.current_thread())
            self.begun[kind].append(t)
            if len(self.threads[kind]) >= 2:
                self.two[kind].set()
        if threading.current_thread() is not threading.main_thread():
            self.two[kind].wait(timeout=10)
        if kind == self.with_grads and t == self.fail:
            time.sleep(self.fail_after)
            with self.lock:
                self.failures.append(t)
                self.finished_before.extend(self.finished[kind])
            return self.original(self.broken, grid, t, work)
        if kind == self.with_grads:
            time.sleep(self.others_after)
        step = self.original(params, grid, t, work)
        with self.lock:
            self.finished[kind].append(t)
        return step


def pool_threads(threads):
    """Two threads, neither of them the calling thread."""
    return len(threads) == 2 and threading.main_thread() not in threads


def test_worker_rule():
    """Threads from 2^16 entries, two workers at most, and one while a kink
    trace is installed, for threads and the helper process alike."""
    workers = min(2, len(os.sched_getaffinity(0)))
    assert pool.workers() == workers
    assert pool.threads(255) == 1
    assert pool.threads(256) == pool.threads(1024) == workers
    serial = {"kind": "serial", "workers": 1}
    assert pool.describe(255, True) == (serial if workers == 1 else {"kind": "processes", "workers": workers})
    assert pool.describe(256, False) == (serial if workers == 1 else {"kind": "threads", "workers": workers})
    assert pool.describe(255, False) == serial
    with ad._kink_tracing():
        assert pool.workers() == pool.threads(1024) == 1
        assert pool.describe(1024, True) == pool.describe(255, True) == serial


CASES = [(negative, fixed_gate) for negative in (True, False) for fixed_gate in (None, 0.5)]


@pytest.mark.parametrize("negative,fixed_gate", CASES)
def test_pooled_predictions_equal_the_serial_loop(data, negative, fixed_gate, pooled, monkeypatch):
    params = pool_params(data, negative, fixed_gate)
    windows = [Window(t, WINDOW) for t in TARGETS]
    with ad.no_grad():
        serial = np.stack([model.forward(params, data, w).data for w in windows])
    spy = BuildSpy(monkeypatch)
    scores = model.predictions_for(params, data, windows)
    assert pool_threads(spy.threads[False]) and not spy.threads[True]
    assert threading.active_count() == 1
    assert scores.tobytes() == serial.tobytes()


@pytest.mark.parametrize("negative,fixed_gate", CASES)
def test_pooled_batch_step_equals_the_serial_one(data, negative, fixed_gate, pooled, monkeypatch):
    params = pool_params(data, negative, fixed_gate)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    loss_of = loss_maker("hybrid", data)

    def step():
        ad.zero_grads(params.tensors())
        values, scores = model.batch_backward(params, data, windows, loss_of)
        values = values, scores.tobytes()  # the pooled scores too must equal the serial ones
        return values, {name: t.grad.tobytes() for name, t in params.named_tensors() if t.grad is not None}

    spy = BuildSpy(monkeypatch)
    pooled_values, pooled_grads = step()
    # stages (1) and (3) each run on two threads of their own
    assert pool_threads(spy.threads[False]) and pool_threads(spy.threads[True])
    assert len(spy.threads[False] | spy.threads[True]) == 4 and threading.active_count() == 1
    monkeypatch.setattr(pool, "workers", lambda: 1)
    serial_values, serial_grads = step()
    assert pooled_values == serial_values
    assert pooled_grads == serial_grads
    assert len(serial_grads) == len(params.named_tensors()) - (fixed_gate is not None)


def spy_windows(monkeypatch):
    """Record the threads that run a window's recurrent forward; one off the
    calling thread waits (for at most 10 s) until a second thread has begun
    one, so that a pooled stage (2) uses two threads."""
    threads, two, lock = set(), threading.Event(), threading.Lock()
    original = model._recurrent

    def spy(params, steps):
        with lock:
            threads.add(threading.current_thread())
            if len(threads) >= 2:
                two.set()
        if threading.current_thread() is not threading.main_thread():
            two.wait(timeout=10)
        return original(params, steps)

    monkeypatch.setattr(model, "_recurrent", spy)
    return threads


class SlowLoss:
    """A pure ``loss_of``: the warm-up loss against the day's risk times
    weights drawn from a generator seeded with the window's target. The
    backward of each window whose target is in ``slow`` starts with a
    50 ms sleep; ``finished`` gets each window's target when its
    ``autodiff.backward_pairs`` returns."""

    def __init__(self, data, monkeypatch, slow=()):
        self.risk = data.risk_by_location()
        self.slow, self.finished, self.target_of = set(slow), [], {}
        original = ad.backward_pairs

        def spy(loss):
            pairs = original(loss)
            self.finished.append(self.target_of.pop(id(loss)))
            return pairs

        monkeypatch.setattr(ad, "backward_pairs", spy)

    def __call__(self, window, scores):
        weights = np.random.default_rng(window.target).uniform(0.5, 1.5, size=scores.shape)
        loss = training.warmup_loss(weights * self.risk[:, window.target], scores)
        if window.target in self.slow:
            loss = ad.fused("slow", loss.data, (loss,), lambda g: (time.sleep(0.05) or g.copy(),))
        self.target_of[id(loss)] = window.target
        return loss


def test_pooled_stage_2_equals_the_serial_one(data, pooled, monkeypatch):
    """Two threads run the windows and the backward of every other window,
    from the first, is slowed, so the window after it finishes first: the
    pairs are still added in window order, and the loss values and every
    parameter's gradient equal the serial stage's bit for bit."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]

    loss_of = SlowLoss(data, monkeypatch, TARGETS[:5:2])

    def step():
        ad.zero_grads(params.tensors())
        loss_of.finished.clear()
        values, scores = model.batch_backward(params, data, windows, loss_of)
        values = values, scores.tobytes()
        return list(loss_of.finished), values, {name: t.grad.tobytes() for name, t in params.named_tensors()}

    threads = spy_windows(monkeypatch)
    pooled_order, pooled_values, pooled_grads = step()
    assert pool_threads(threads) and threading.active_count() == 1
    assert sorted(pooled_order) == TARGETS[:5] and pooled_order != TARGETS[:5]
    monkeypatch.setattr(pool, "workers", lambda: 1)
    serial_order, serial_values, serial_grads = step()
    assert serial_order == TARGETS[:5]
    assert pooled_values == serial_values
    assert pooled_grads == serial_grads


def test_pooled_stage_3_equals_the_serial_one(data, pooled, monkeypatch):
    """The ``vjp`` of every other rebuilt period, from the first, starts
    with a 50 ms sleep, so the period after it finishes first and its
    thread starts the next rebuild: the pairs are still added in ascending
    period order, and no rebuild takes a workspace whose ``vjp`` is still
    running, so every gradient equals the serial stage's bit for bit."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    periods = sorted({t for w in windows for t in w.inputs()})
    loss_of = loss_maker("hybrid", data)
    built, finished, build, vjp = {}, [], model._period_step, ad.vjp

    def spy_build(params, grid, t, work):
        step = build(params, grid, t, work)
        if ad._grad_enabled:  # a stage (3) rebuild
            built[id(step)] = t
        return step

    def spy_vjp(node, g):
        t = built.pop(id(node), None)  # None: a vjp inside a window's backward
        if t in periods[::2]:
            time.sleep(0.05)
        pairs = vjp(node, g)
        if t is not None:
            finished.append(t)
        return pairs

    def step():
        ad.zero_grads(params.tensors())
        finished.clear()
        values, scores = model.batch_backward(params, data, windows, loss_of)
        values = values, scores.tobytes()
        return list(finished), values, {name: t.grad.tobytes() for name, t in params.named_tensors()}

    monkeypatch.setattr(model, "_period_step", spy_build)
    monkeypatch.setattr(ad, "vjp", spy_vjp)
    pooled_order, pooled_values, pooled_grads = step()
    assert sorted(pooled_order) == periods and pooled_order != periods
    monkeypatch.setattr(pool, "workers", lambda: 1)
    serial_order, serial_values, serial_grads = step()
    assert serial_order == periods
    assert pooled_values == serial_values
    assert pooled_grads == serial_grads


def test_numerical_error_in_a_loss_stops_the_window_waiting_for_its_turn(data, pooled, monkeypatch):
    """Window 0's ``loss_of`` raises once window 1's backward is done, so
    window 1's pairs wait for their turn: the caller gets window 0's
    error, no thread is left, and no gradient reaches any parameter."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    loss_of = loss_maker("mse", data)
    threads, second, original = set(), threading.Event(), ad.backward_pairs

    def spy(loss):
        pairs = original(loss)
        second.set()
        return pairs

    def failing_loss(window, scores):
        threads.add(threading.current_thread())
        if window.target != TARGETS[0]:
            return loss_of(window, scores)
        second.wait(timeout=10)
        raise NumericalError(f"training diverged: non-finite loss on day {window.target}")

    monkeypatch.setattr(ad, "backward_pairs", spy)
    with pytest.raises(NumericalError) as raised:
        model.batch_backward(params, data, windows, failing_loss)
    assert str(raised.value) == f"training diverged: non-finite loss on day {TARGETS[0]}"
    assert second.is_set() and pool_threads(threads) and threading.active_count() == 1
    assert all(t.grad is None for t in params.tensors())


def test_more_threads_than_cpus_with_short_switches_give_the_serial_scores(data, monkeypatch):
    """Five threads on at most two CPUs, switching every microsecond: a slot
    written by the wrong thread or lost would change the scores."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS]
    with ad.no_grad():
        serial = np.stack([model.forward(params, data, w).data for w in windows])
    spy = BuildSpy(monkeypatch)
    monkeypatch.setattr(pool, "workers", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scores = model.predictions_for(params, data, windows)
    finally:
        sys.setswitchinterval(interval)
    assert len(spy.threads[False]) >= 2 and threading.active_count() == 1
    assert scores.tobytes() == serial.tobytes()


def test_more_threads_than_cpus_with_short_switches_give_the_serial_batch_step(data, monkeypatch):
    """The same for the three stages of a batch, whose pairs all go into
    the parameters' ``.grad``: a pair added out of turn or lost, or a
    workspace shared by two running rebuilds, would change the bits."""
    params = pool_params(data, True, None)
    windows = [Window(t, WINDOW) for t in TARGETS]
    loss_of = SlowLoss(data, monkeypatch)

    def step():
        ad.zero_grads(params.tensors())
        values, scores = model.batch_backward(params, data, windows, loss_of)
        values = values, scores.tobytes()
        return values, {name: t.grad.tobytes() for name, t in params.named_tensors()}

    monkeypatch.setattr(pool, "workers", lambda: 1)
    serial = step()
    threads = spy_windows(monkeypatch)
    monkeypatch.setattr(pool, "workers", lambda: 5)
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


@pytest.mark.parametrize("fixed_gate,dtype", [
    pytest.param(fixed_gate, dtype, id=f"{fixed_gate}" + ("-float32" if dtype == np.float32 else ""))
    for dtype in (np.float64, np.float32) for fixed_gate in (None, 0.5)])
def test_a_build_with_gradients_holds_one_s_by_s_array(fixed_gate, dtype):
    """At S = 500 (row blocks of 65 rows in float64, eight of them with
    seven rebuilt in the backward, and of 130 rows in float32, four with
    three rebuilt) the build and its ``vjp`` use a workspace of one S x S
    array and two row blocks of at most ``_BLOCK_BYTES``, and allocate less
    than half an S x S array beside it."""
    params, grid, weights = step_case(20, 25, True, fixed_gate, seed=2)
    params, weights = params.cast(dtype), weights.astype(dtype)
    itemsize = np.dtype(dtype).itemsize
    rows = adjacency._BLOCK_BYTES // (500 * 8) * (8 // itemsize)
    assert rows * 500 * itemsize <= adjacency._BLOCK_BYTES
    work = adjacency.workspace(500, dtype)
    first = ad.vjp(model._period_step(params, grid, T, work), weights)
    assert sorted(a.shape for a in work.values()) == [(rows, 500), (rows, 500), (500, 500)]
    tracemalloc.start()
    try:
        pairs = ad.vjp(model._period_step(params, grid, T, work), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * 500 * itemsize / 2
    assert [param for param, _ in pairs] == [param for param, _ in first]
    assert len(pairs) == len(graph_tensors(params)) - (fixed_gate is not None)
    assert all(np.array_equal(grad, want) for (_, grad), (_, want) in zip(pairs, first))


def test_numerical_error_in_a_worker_reaches_the_caller(data, pooled, monkeypatch):
    """The first period's build fails at once while every other build takes
    100 ms: the caller gets its error, the builds not yet started are
    cancelled, and no thread is left."""
    windows = [Window(t, WINDOW) for t in TARGETS]
    periods = list(dict.fromkeys(t for w in windows for t in w.inputs()))
    spy = BuildSpy(monkeypatch, fail=periods[0], broken=nan_params(data), others_after=0.1)
    with pytest.raises(NumericalError, match="period_step produced non-finite values"):
        model.predictions_for(pool_params(data, True, None), data, windows)
    assert spy.failures == [periods[0]] and threading.active_count() == 1
    assert len(spy.begun[False]) < len(periods)


def test_numerical_error_in_a_worker_exits_4(data, pooled, tmp_path, capsys, monkeypatch):
    manifest = griddata.save_grid(data, tmp_path / "data")
    model.save_checkpoint(tmp_path / "ckpt", pool_params(data, True, None))
    last = data.periods - 2  # the last input period of the last validation window
    spy = BuildSpy(monkeypatch, fail=last, broken=nan_params(data))
    code = cli.main(["--set", "eval.ks=[5]", "evaluate", "--data", str(manifest),
                     "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_NUMERIC and spy.failures == [last]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure:") and "Traceback" not in err


def test_numerical_error_in_a_stage_3_worker_reaches_the_caller(data, pooled, monkeypatch):
    """The rebuild of the lowest period fails after 200 ms, once later
    rebuilds have finished: the batch stops with its error, no thread is
    left, and no rebuild's gradient reaches the graph block's parameters,
    since nothing after the failing rebuild is added."""
    windows = [Window(t, WINDOW) for t in TARGETS[:5]]
    first = TARGETS[0] - WINDOW
    spy = BuildSpy(monkeypatch, fail=first, broken=nan_params(data), with_grads=True, fail_after=0.2)
    params = pool_params(data, True, None)
    with pytest.raises(NumericalError, match="period_step produced non-finite values"):
        model.batch_backward(params, data, windows, loss_maker("hybrid", data))
    assert spy.failures == [first] and spy.finished_before and threading.active_count() == 1
    assert all(t.grad is None for t in graph_tensors(params))
    assert params.table["lstm.wx"].grad is not None  # stage (2) ran


def test_numerical_error_in_a_stage_3_worker_exits_4(data, pooled, tmp_path, capsys, monkeypatch):
    manifest = griddata.save_grid(data, tmp_path / "data")
    spy = BuildSpy(monkeypatch, fail=0, broken=nan_params(data), with_grads=True)
    sizes = ["--set", "model.hidden=4", "--set", "model.recurrent_hidden=3", "--set", f"model.window={WINDOW}",
             "--set", "model.embed_dim=3", "--set", "train.epochs=1", "--set", "train.warmup_epochs=1"]
    code = cli.main(sizes + ["train", "--data", str(manifest), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NUMERIC and spy.failures == [0]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_small_grids_start_no_thread():
    """Below 2^16 entries no thread starts and glibc's allocator is left as
    it is."""
    script = (
        "import threading\n"
        "from gridrank import grid, model, pool\n"
        "started = []\n"
        "threading.Thread.start = lambda thread: started.append(thread)\n"
        "data = grid.generate_synthetic(3, 15, 17, 30, 2)\n"
        "params = model.init_params(model.ModelConfig.for_grid(data, hidden=4, recurrent_hidden=3, window=3,"
        " embed_dim=3))\n"
        "model.predictions_for(params, data, [grid.Window(t, 3) for t in (4, 5, 9)])\n"
        "print(len(started), pool._one_malloc_arena.cache_info().currsize)\n")
    src = Path(model.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
