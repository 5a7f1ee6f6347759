"""The workers that run one call's period builds and windows: threads from
S x S = ``_POOL_MIN_ENTRIES`` = 2^16 entries (S = 256), one forked helper
process below it while a training run has one open, or the calling
thread alone. ``model`` cuts its calls into jobs; this module runs them.

Both kinds hand the results back in job order, and the caller adds each
job's gradient pairs as it takes them, so every ``.grad`` sums its terms
in the serial order and the outputs equal the serial ones bit for bit,
whatever the worker count. ``workers`` is the rule for both: one while a
kink trace is installed (its masks would arrive out of job order, or in
another process), else min(``_POOL_WORKERS`` = 2, CPUs available).

**Threads (S >= 256).** Every stage runs its jobs on a
``ThreadPoolExecutor`` started for the stage (``in_order``). Each running
job has its own workspace, taken from a free list of one per worker, so
two workers hold two S x S arrays, as many as the serial rebuilds held
when a build kept A. The pooled to serial time of ``predictions_for``
(2-vCPU VM, one BLAS thread) was 1.24 at S = 64, 1.02 at S = 144, 0.82 at
S = 256 and 0.53 at S = 1024: below S = 256, numpy's per-op overhead
holds the GIL and threads cannot help. Before the first thread starts,
glibc's ``mallopt(M_ARENA_MAX, 1)`` makes every thread allocate from the
main arena: per-thread arenas took eval-32x32's peak RSS from 185 to
236 MB. A period build and ``predictions_for``'s windows submit every
job, since their results are kept; ``batch_backward``'s windows and
rebuilds keep at most ``workers`` + 1 jobs submitted and not yet taken,
so a thread that finishes early starts the next job, and at most one
window's pairs (about 2 MB at S = 1024) wait beyond those running. Each
running job holds one window's recurrent node or one period's tape, so
two windows' nodes (about 12 MB each at S = 1024) can be alive at once,
and after a pooled window stage ``trim_malloc`` hands the arena's free
pages back. Both the backward freeing its activations as it goes and
the trim are needed: on train-32x32 (2-vCPU VM, one BLAS thread, three
runs each) the pooled stage peaked at 104.0-109.1 MB, at 116.5-118.5 MB
without the trim and at 119.5-124.2 MB without either, against
104.3-107.4 MB for a serial stage.

**The helper process (S < 256).** Processes do not share a GIL. While
``Helper.open`` is in force (``training.train`` holds it for one run),
each stage of a call splits its jobs between the calling process, which
runs them from the front, and one helper, which runs them from the back.
Each side claims a job in the arena before it starts it and stops where
the other's claims begin, so a side slowed by other work, or by the
caller's additions in job order, takes fewer jobs: with fixed halves
(even jobs here, odd ones there) the caller waited 0.36 s of a
train-8x8 pass on the helper, against 0.12 s with claims. The helper is
forked at the first such call and ended when the run ends: forking costs
about 3.7 ms, which would be 0.33 s over train-8x8's 88 batches if paid
per call. It starts from a copy of the caller's memory, so it has the
grid, its per-period input caches and the code without an import. It is
a fork, not a spawn, so it forks only while the caller's thread is the
process's only one: below S = 256 the program starts no other. A call's
arguments (parameters, windows, ``loss_of``) and each job's result cross
as a pickle through a pipe, one each way, whose arrays are written to a
shared anonymous ``mmap`` arena mapped before the fork: a window's
gradient pairs are 312 KB at S = 64, and pickling 1.19 MB of them
through a pipe took 6.9 ms per round trip. The pipe carries the structure, the small values and the
errors; the grid is named, not copied. Each side writes its own half of
the arena, from its start at every call, and the other side reads the
arrays in place, read-only, until that call ends; an array that does not
fit goes through the pipe. A side that waits for a message polls its
pipe for up to ``_POLL_S`` = 20 ms before it blocks, which covers the
caller's work between two batches: a blocked side's idle CPU took up to
0.6 ms to wake once the message came, and over eight alternating
train-8x8 passes each the median pass took 1.50-1.57 s polling against
1.75-1.79 s blocking at once. A job that raises in the helper sends its
error, which the caller raises when that job's turn comes, so the lowest
failing job's error wins as with threads; any error ends the helper, and
later calls run serially, with the same bits. The helper ignores SIGINT,
so an interrupt reaches the caller alone, and it exits when its pipe
reads EOF, so a killed caller leaves no orphan.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
import gc
import io
import mmap
import os
import pickle
import select
import signal
import threading
import time
from typing import Callable

import numpy as np

from . import autodiff as ad

# The thread rule's threshold and the most workers of either kind.
_POOL_MIN_ENTRIES = 1 << 16
_POOL_WORKERS = 2

# Each side's half of the helper's arena: a window's pairs are about 0.3 MB
# at S = 64 and 0.55 MB at S = 255, so the helper's share of a batch of 64
# windows (the default) fits. Pages are allocated as they are first written.
_ARENA_BYTES = 32 << 20
_ALIGN = 64
# The arena's first bytes: the job claims of a call's stages, two int64 each.
_CLAIMS_BYTES = 4096
# How long a side waiting for a message polls its pipe before it blocks.
_POLL_S = 0.02


def cpus() -> int:
    """CPUs available to the process."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def workers() -> int:
    """Workers for one call's builds and windows, threads or processes:
    one while a kink trace is installed, else min(``_POOL_WORKERS``,
    CPUs available)."""
    return 1 if ad.tracing_kinks() else min(_POOL_WORKERS, cpus())


def threads(s: int) -> int:
    """Threads for a call on S locations: ``workers()`` from
    ``_POOL_MIN_ENTRIES`` entries, else one."""
    return workers() if s * s >= _POOL_MIN_ENTRIES else 1


def describe(s: int, with_helper: bool) -> dict:
    """The pool of the calls on S locations, for ``run.json``: its kind
    ("threads", "processes" when a helper runs, or "serial") and its
    workers."""
    count = workers()
    if count == 1 or (s * s < _POOL_MIN_ENTRIES and not with_helper):
        return {"kind": "serial", "workers": 1}
    return {"kind": "threads" if s * s >= _POOL_MIN_ENTRIES else "processes", "workers": count}


@functools.cache
def _libc(name: str, *argtypes):
    """The C library's function ``name`` taking ``argtypes`` and returning
    an int, or None where the C library has no such function."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes, function.restype = argtypes, ctypes.c_int
    return function


@functools.cache
def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main arena:
    mallopt(M_ARENA_MAX, 1), with M_ARENA_MAX = -8 from malloc.h. A no-op
    where the C library has no ``mallopt``."""
    mallopt = _libc("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-8, 1)


def trim_malloc() -> None:
    """Return the main arena's free pages to the system: glibc's
    malloc_trim(0), a no-op where the C library has none. The arena keeps
    freed heap resident otherwise, and a later transient that lands on
    fresh pages instead raises the peak RSS."""
    trim = _libc("malloc_trim", ctypes.c_size_t)
    if trim is not None:
        trim(0)


def in_order(count: int, jobs, ahead: int | None = None):
    """Yield ``job()`` for each of ``jobs`` in job order, on the calling
    thread. With one worker the jobs run inline and no thread starts.
    Otherwise they run on a ``ThreadPoolExecutor`` of ``count`` threads,
    each in a copy of the caller's context (numpy's ``errstate`` is a
    context variable); at most ``ahead`` jobs (all when None) are submitted
    and not yet taken. A failing job's error is raised when its turn comes,
    so the lowest failing job's; jobs not started are cancelled, and every
    thread has ended by the time the error is raised or the iteration
    ends."""
    if count == 1:
        yield from (job() for job in jobs)
        return
    _one_malloc_arena()
    from concurrent.futures import ThreadPoolExecutor  # here: it loads logging, 0.4 MB a serial run never needs
    executor, pending = ThreadPoolExecutor(count), collections.deque()
    try:
        for job in jobs:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(executor.submit(contextvars.copy_context().run, job))
        while pending:
            yield pending.popleft().result()
    finally:
        executor.shutdown(cancel_futures=True)


class _Failed:
    """A helper's message that stands for the error a job raised."""

    def __init__(self, error: BaseException):
        self.error = error


class _Reported(Exception):
    """A job's error that the helper has already sent."""


class Helper:
    """One helper process for the calls on ``grid`` while ``open`` is in
    force; ``serve(helper, *call)`` is the helper's half of a call, run in
    the helper. The calling process is side 0 and the helper side 1."""

    _current: contextvars.ContextVar = contextvars.ContextVar("gridrank_helper", default=None)

    def __init__(self, grid, serve: Callable):
        self.grid, self.serve = grid, serve
        self.pid = self.arena = self.claims = None
        self.fds, self.poller = (), None  # this side's (read, write) pipe ends, and a poll of the first
        self.side = 0
        self.used = 0  # bytes of this side's half written in the current call
        self.stage = 0  # the current call's stages so far, which index ``claims``
        self.ran = False  # whether a helper was ever forked
        self.closed = False

    @classmethod
    @contextlib.contextmanager
    def open(cls, grid, serve: Callable):
        """While in force, ``for_call`` hands calls on ``grid`` this helper;
        on exit the helper, if one was forked, has ended."""
        helper = cls(grid, serve)
        token = cls._current.set(helper)
        try:
            yield helper
        finally:
            cls._current.reset(token)
            helper.close()

    @classmethod
    @contextlib.contextmanager
    def for_call(cls, s: int, grid, *call):
        """The open helper for a call on ``grid``'s S locations, after
        sending it ``call``, or None when the call runs without one: no
        helper is open for ``grid``, S x S reaches ``_POOL_MIN_ENTRIES``,
        ``workers()`` is one, or the helper has been ended. An error in the
        caller ends the helper; on a normal exit the helper has finished
        its half of the call."""
        helper = cls._current.get()
        if (helper is None or helper.grid is not grid or s * s >= _POOL_MIN_ENTRIES or workers() < 2
                or not helper._start()):
            yield None
            return
        try:
            helper._begin()
            helper.claims[...] = 0  # the helper is idle until it reads the call
            helper.send(call)
            yield helper
            helper.receive()  # the helper's end of the call
        except BaseException:
            helper.close(kill=True)
            raise

    def _start(self) -> bool:
        """Fork the helper unless it runs or has ended, or another thread
        runs (a fork copies no other thread, and a lock one held would stay
        held in the helper); whether it runs."""
        if self.pid is not None or self.closed or threading.active_count() > 1:
            return self.pid is not None
        self.arena = mmap.mmap(-1, _CLAIMS_BYTES + 2 * _ARENA_BYTES)  # MAP_SHARED | MAP_ANONYMOUS
        self.claims = np.ndarray((_CLAIMS_BYTES // 16, 2), np.int64, self.arena)
        (down_read, down_write), (up_read, up_write) = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            gc.freeze()  # the collector leaves the caller's objects, and their pages, alone
            os.close(down_write)
            os.close(up_read)
            self._connect((down_read, up_write), 1)
            self._serve_forever()  # never returns
        os.close(down_read)
        os.close(up_write)
        self._connect((up_read, down_write), 0)
        self.pid, self.ran = pid, True
        return True

    def _connect(self, fds: tuple[int, int], side: int) -> None:
        self.fds, self.side = fds, side
        self.poller = select.poll()
        self.poller.register(fds[0], select.POLLIN)

    def _serve_forever(self) -> None:
        """The helper's life: serve calls until the pipe reads EOF or a call
        fails, then exit without returning into the caller's frames."""
        code = 0
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            while True:
                try:
                    call = self.receive()
                except EOFError:  # the caller closed its end or died
                    break
                self._begin()
                try:
                    self.serve(self, *call)
                except _Reported:
                    break
                except Exception as error:
                    self.send(_Failed(error))
                    break
                self.send(None)
        except BaseException:
            code = 1
        finally:
            os._exit(code)

    def _begin(self) -> None:
        self.used = self.stage = 0

    def close(self, kill: bool = False) -> None:
        """End the helper: close the pipe, which it reads as EOF, or kill it
        mid-job; then wait for it. Later calls run without it."""
        self.closed = True
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        if kill:
            os.kill(pid, signal.SIGKILL)
        for fd in self.fds:
            os.close(fd)
        os.waitpid(pid, 0)
        self.arena = self.claims = None

    # -- messages: a length and a pickle through the pipe, the pickle's
    # arrays in the arena --

    def send(self, message) -> None:
        buffer = io.BytesIO()
        buffer.write(bytes(8))
        _Pickler(buffer, self).dump(message)
        data = buffer.getbuffer()
        data[:8] = (len(data) - 8).to_bytes(8, "little")
        while data:
            data = data[os.write(self.fds[1], data):]

    def receive(self):
        """The next message; an error the other side sent is raised here,
        and EOFError once the other side has closed its end."""
        message = _Unpickler(io.BytesIO(self._read(int.from_bytes(self._read(8), "little"))), self).load()
        if isinstance(message, _Failed):
            raise message.error
        return message

    def _read(self, size: int) -> bytearray:
        data = bytearray(size)
        view, got = memoryview(data), 0
        deadline = time.perf_counter() + _POLL_S
        while not self.poller.poll(0) and time.perf_counter() < deadline:
            pass  # a CPU that stays busy needs no waking when the message comes
        while got < size:
            count = os.readv(self.fds[0], [view[got:]])
            if count == 0:
                raise EOFError("the other side of the helper's pipe has closed it")
            got += count
        return data

    def _put(self, array: np.ndarray):
        """Write ``array`` into this side's half; its (offset, dtype,
        shape), or None when it does not fit."""
        if self.used + array.nbytes > _ARENA_BYTES:
            return None
        start = _CLAIMS_BYTES + self.side * _ARENA_BYTES + self.used
        np.ndarray(array.shape, array.dtype, self.arena, start)[...] = array
        self.used += -(-array.nbytes // _ALIGN) * _ALIGN
        return start, array.dtype.str, array.shape

    def _get(self, offset: int, dtype: str, shape: tuple) -> np.ndarray:
        """A read-only view of an array the other side wrote: it holds
        until that side's next call begins."""
        view = np.ndarray(shape, dtype, self.arena, offset)
        view.flags.writeable = False
        return view

    def grid_of(self):
        return self.grid

    # -- the jobs of one stage: the caller runs them from the front, the
    # helper from the back, each claiming a job before it starts it --

    def _next_claims(self) -> np.ndarray:
        """The stage's two claim counts in the arena: the caller's (jobs
        claimed from the front) and the helper's (from the back)."""
        self.stage += 1
        return self.claims[self.stage - 1]

    def in_order(self, jobs: list, decode: Callable = lambda result: result, ran: list | None = None):
        """On the caller: yield each job's result in job order. A job the
        helper has not claimed is claimed and run here; from the first one
        it has claimed, its results (``serve_jobs``) are taken through
        ``decode``, and an error it sent is raised at that job's turn. The
        caller waits only for a job the helper claimed before it, which the
        helper then runs, since the caller never claims it; the helper
        skips only a job the caller has claimed. So no job is skipped, and
        one that both claim at once runs twice, with the same bits. ``ran``
        gets the jobs run here."""
        claims, theirs, ended, n = self._next_claims(), {}, False, len(jobs)
        for j, job in enumerate(jobs):
            if j < n - claims[1]:
                claims[0] = j + 1
                if ran is not None:
                    ran.append(j)
                yield job()
                continue
            while j not in theirs:
                message = self.receive()
                if message is None:
                    raise RuntimeError(f"the helper ended a stage without its job {j}")
                theirs[message[0]] = message[1]
            result = theirs.pop(j)
            if isinstance(result, _Failed):
                raise result.error
            yield decode(result)
        while not ended:  # the helper's end of the stage, after any job it ran twice
            ended = self.receive() is None

    def serve_jobs(self, jobs: list, encode: Callable = lambda result: result) -> dict:
        """In the helper: claim and run jobs from the back until the
        caller's claims reach them, send each (job, encoded result), then
        None; return the results by job. A job's error is sent in its
        place and ends the call."""
        claims, done, n = self._next_claims(), {}, len(jobs)
        for k in reversed(range(n)):
            claims[1] = n - k
            if k < claims[0]:
                break
            try:
                done[k] = jobs[k]()
            except Exception as error:
                self.send((k, _Failed(error)))
                self.send(None)
                raise _Reported from error
            self.send((k, encode(done[k])))
        self.send(None)
        return done

    def gather(self, jobs: list, encode: Callable, decode: Callable) -> list:
        """On both sides: run the jobs split between the sides, swap the
        results and return every job's result in job order. The helper
        sends its results first, so no message waits on a full pipe."""
        if self.side == 0:
            ran = []
            results = list(self.in_order(jobs, decode, ran))
            self.send({j: encode(results[j]) for j in ran})
            return results
        done = self.serve_jobs(jobs, encode)
        theirs = self.receive()
        return [done[j] if j in done else decode(theirs[j]) for j in range(len(jobs))]


class _Pickler(pickle.Pickler):
    """Names the helper's grid and writes plain arrays into the arena."""

    def __init__(self, file, helper: Helper):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.helper = helper

    def reducer_override(self, obj):  # not called for the builtin types: a message's ints and keys cost nothing
        if obj is self.helper.grid:
            return Helper.grid_of, ()
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            where = self.helper._put(obj)
            if where is not None:
                return Helper._get, where
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    """Resolves ``_Pickler``'s references against this side's helper."""

    def __init__(self, file, helper: Helper):
        super().__init__(file)
        self.helper = helper

    def find_class(self, module: str, name: str):
        if module == __name__ and name in ("Helper.grid_of", "Helper._get"):
            return getattr(self.helper, name.partition(".")[2])
        return super().find_class(module, name)
