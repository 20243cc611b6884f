"""Forked worker processes: a pool that lives across calls, and an
order-preserving map built on it.

``Workers(fn, n)`` forks ``n`` workers that serve until the pool is closed.
``workers.call(requests)`` hands ``requests[w]`` to worker w, which answers
``fn(w, request)``, and returns the answers in worker order. With fewer than
two workers or usable CPUs, or where ``os.fork`` does not exist, the pool
forks nothing and ``call`` makes the same calls in this process.

``fork_map(fn, items)`` returns ``[fn(item) for item in items]`` from one call
of a pool with one worker per CPU this process may use, capped at the item
count; worker w takes items w, w + n, w + 2n, ... With one worker it is that
plain loop in this process.

Inputs reach the workers through fork, so ``fn`` may be a closure over large
arrays; only requests and answers are pickled, over two pipes per worker. The
parent starts no helper thread, and each worker computes on one OpenBLAS
thread. Failures follow one protocol:

- an exception raised in a worker is raised again in the parent with its type
  and message, or as ``RuntimeError`` naming both when it does not survive
  pickling; of several, the lowest index wins (the worker's for ``call``, the
  item's for ``fork_map``, the one the plain loop would have met first);
- a worker that dies raises ``RuntimeError`` with its wait status;
- on any error every worker is SIGKILLed and reaped. On a plain close each
  worker reads end-of-file on its request pipe, leaves through ``os._exit``
  and is reaped.

Each worker closes the parent's ends of the pipes of the workers forked
before it; otherwise it would hold an earlier worker's request pipe open, and
that worker would never read end-of-file. Fork is safe here because the
program starts no threads of its own; the one library that may (OpenBLAS)
restarts its pool in a child through its own fork handler.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from dataclasses import dataclass
from typing import BinaryIO, NoReturn


# The names OpenBLAS builds give their thread-count setter
BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "scipy_openblas_set_num_threads64_")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _portable(exc: Exception) -> Exception:
    """``exc`` if it comes back whole through pickle, else a RuntimeError
    naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - an exception that does not pickle
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


@dataclass(slots=True)
class _Worker:
    pid: int | None  # None once reaped
    requests: int    # write end of the worker's request pipe
    answers: BinaryIO  # read end of its answer pipe

    def close_pipes(self) -> None:
        os.close(self.requests)
        self.answers.close()


class Workers:
    """``n`` forked workers; worker w answers ``fn(w, request)`` for each
    ``call`` until ``close``. As a context manager it closes on exit, and
    SIGKILLs the workers first when the block raised."""

    def __init__(self, fn, n: int):
        self._fn = fn
        self._workers: list[_Worker] = []
        if min(n, _usable_cpus()) < 2 or not hasattr(os, "fork"):
            return
        try:
            for w in range(n):
                self._workers.append(self._fork(w))
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self, w: int) -> _Worker:
        request_read, request_write = os.pipe()
        answer_read, answer_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_read, request_write, answer_read, answer_write):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(request_write)
                os.close(answer_read)
                for earlier in self._workers:
                    earlier.close_pipes()
                status = _serve(self._fn, w, request_read, answer_write)
            finally:
                os._exit(status)
        os.close(request_read)
        os.close(answer_write)
        return _Worker(pid, request_write, os.fdopen(answer_read, "rb"))

    def call(self, requests: list) -> list:
        """``[fn(w, requests[w]) for w in ...]``, each in worker w."""
        if not self._workers:
            return [self._fn(w, request) for w, request in enumerate(requests)]
        for worker, request in zip(self._workers, requests, strict=True):
            try:
                _write(worker.requests, pickle.dumps(request))
            except BrokenPipeError:
                self._died(worker)
        answers = []
        for worker in self._workers:
            try:
                answers.append(pickle.load(worker.answers))
            except (EOFError, pickle.UnpicklingError):
                self._died(worker)
        for _, failure in answers:
            if failure is not None:
                raise failure
        return [answer for answer, _ in answers]

    def _died(self, worker: _Worker) -> NoReturn:
        pid, worker.pid = worker.pid, None
        _, status = os.waitpid(pid, 0)
        raise RuntimeError(f"worker process {pid} ended with wait status "
                           f"{status} before returning its results")

    def close(self, kill: bool = False) -> None:
        """End every worker and reap it; ``kill`` SIGKILLs them first."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.close_pipes()  # a serving worker reads end-of-file and leaves
            if worker.pid is not None:
                if kill:
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                os.waitpid(worker.pid, 0)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """Each OpenBLAS this process has loaded, with the name its build gives
    the thread-count setter. They are found in ``/proc/self/maps``; where
    that file does not exist, or the BLAS is not OpenBLAS, this is empty."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in maps)
                     if len(parts) == 6 and "openblas" in os.path.basename(parts[5])}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [name for name in BLAS_THREAD_SETTERS if hasattr(lib, name)]
        if names:
            found.append((lib, names[0]))
    return found


def _serve(fn, w: int, request_read: int, answer_write: int) -> int:
    """A worker's life: answer ``(fn(w, request), failure)`` to each request
    until the parent closes the pipe; returns the exit status.

    A worker is one CPU's share of the work, so it computes on one OpenBLAS
    thread. With OpenBLAS's default of one thread per CPU, each worker's
    BLAS threads compete with the other workers, and idle OpenBLAS threads
    spin: on 2 CPUs the run-cold train stage took 9.0 s that way, against
    2.4 s on one thread per worker and 3.3 s in a single process. The thread
    count does not change results."""
    for lib, name in _loaded_openblas():
        setter = getattr(lib, name)
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setter(1)
    with os.fdopen(request_read, "rb") as inbox:
        while True:
            try:
                request = pickle.load(inbox)
            except EOFError:
                return 0
            try:
                answer = (fn(w, request), None)
            except Exception as exc:  # noqa: BLE001 - raised again in the parent
                answer = (None, _portable(exc))
            _write(answer_write, pickle.dumps(answer))


def fork_map(fn, items) -> list:
    items = list(items)
    n = min(_usable_cpus(), len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]

    def map_slice(w: int, _) -> tuple[list, tuple[int, Exception] | None]:
        """Worker w's items, stopping at the first that raises; the failure
        is ``(index in items, exception)``."""
        done = []
        for j, item in enumerate(items[w::n]):
            try:
                done.append(fn(item))
            except Exception as exc:  # noqa: BLE001 - raised again below
                return done, (w + j * n, _portable(exc))
        return done, None

    with Workers(map_slice, n) as workers:
        answers = workers.call([None] * n)
    results = [None] * len(items)
    failures = []
    for w, (done, failure) in enumerate(answers):
        results[w:w + len(done) * n:n] = done
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
