"""Order-preserving map over forked worker processes."""

from __future__ import annotations

_task_fn = None  # set in each worker by _adopt


def _adopt(fn) -> None:
    global _task_fn
    _task_fn = fn


def _run(task):
    return _task_fn(task)


def pool_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on up to ``workers`` forked processes.

    Runs in-process when ``workers < 2``, with fewer than two tasks, or without
    "fork". Workers inherit ``fn`` unpickled; a task's exception re-raises here
    with its type, a dead worker raises ``BrokenProcessPool``, and every worker
    is reaped before this returns or raises."""
    tasks = list(tasks)
    if workers > 1 and len(tasks) > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(min(workers, len(tasks)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(fn,)) as pool:
                return list(pool.map(_run, tasks))
    return [fn(task) for task in tasks]
