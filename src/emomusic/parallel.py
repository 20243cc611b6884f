"""An order-preserving map over forked worker processes.

``fork_map(fn, items)`` returns ``[fn(item) for item in items]``. It forks
one worker per CPU this process may use, capped at the item count; worker w
takes items w, w + n, w + 2n, ... With one worker, or where ``os.fork``
does not exist, it is that plain loop in this process.

Inputs reach the workers through fork, so ``fn`` may be a closure over large
arrays; only the results are pickled back, one pipe per worker. The parent
reads the pipes in its own thread, starts no helper thread, and reaps every
worker before it returns or raises. A worker's exception is raised again in
the parent with its type and message; when several items fail, the one the
plain loop would have met first wins. Workers leave through ``os._exit``.

Fork is safe here because the program starts no threads of its own; the
one library that may (OpenBLAS) restarts its pool in a child through its
own fork handler.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_map(fn, items) -> list:
    items = list(items)
    n = min(_usable_cpus(), len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    pids: dict[int, int] = {}  # read end of each worker's pipe -> its pid
    try:
        for w in range(n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _serve(fn, items[w::n], w, n, write_end)
            os.close(write_end)
            pids[read_end] = pid
        payloads = _read_all(list(pids))
        for read_end, pid in list(pids.items()):
            _, status = os.waitpid(pid, 0)
            del pids[read_end]
            os.close(read_end)
            if status != 0 or not payloads[read_end]:
                raise RuntimeError(f"worker process {pid} ended with wait status "
                                   f"{status} before returning its results")
    finally:
        for read_end, pid in pids.items():  # an error cut the loop short
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)

    results = [None] * len(items)
    failures = []
    for w, payload in enumerate(payloads.values()):  # in worker order
        done, failure = pickle.loads(payload)
        for j, result in enumerate(done):
            results[w + j * n] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _read_all(fds: list[int]) -> dict[int, bytes]:
    """Everything written to each pipe, read until every writer has closed."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                chunk = os.read(key.fd, 1 << 20)
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    selector.unregister(key.fd)
    return {fd: b"".join(parts) for fd, parts in chunks.items()}


def _serve(fn, items: list, first: int, step: int, write_end: int):
    """A worker's whole life: map ``fn`` over its items, stopping at the
    first that raises, write ``(results, failure)`` to the pipe and exit.
    ``failure`` is ``(index in the full list, exception)`` or None."""
    status = 1
    try:
        done, failure = [], None
        for j, item in enumerate(items):
            try:
                done.append(fn(item))
            except Exception as exc:  # noqa: BLE001 - raised again in the parent
                failure = (first + j * step, exc)
                break
        if failure is not None:
            try:
                pickle.loads(pickle.dumps(failure[1]))
            except Exception:  # noqa: BLE001 - an exception that does not pickle
                exc = failure[1]
                failure = (failure[0], RuntimeError(f"{type(exc).__name__}: {exc}"))
        payload = pickle.dumps((done, failure))
        with os.fdopen(write_end, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)
