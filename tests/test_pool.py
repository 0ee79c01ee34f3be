"""The forked worker pool: order, fallbacks, errors, reaping, and imports."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from csvnet._pool import pool_map
from csvnet.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports csvnet from src/, with a
    timeout so that a hung pool fails the test instead of stalling it."""
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


def square(x: int) -> int:
    return x * x


def test_results_come_back_in_task_order():
    tasks = list(range(23))
    assert pool_map(square, tasks, 2) == [x * x for x in tasks]


def test_closures_need_no_pickling():
    offset = {"by": 5}
    assert pool_map(lambda x: x + offset["by"], range(4), 2) == [5, 6, 7, 8]


@pytest.mark.parametrize("workers, tasks", [(1, range(4)), (0, range(4)),
                                            (2, range(1)), (2, range(0))])
def test_serial_cases_run_in_this_process(workers, tasks):
    pids = pool_map(lambda _: os.getpid(), tasks, workers)
    assert pids == [os.getpid()] * len(tasks)


def test_serial_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert pool_map(lambda _: os.getpid(), range(3), 2) == [os.getpid()] * 3


def test_task_exception_keeps_its_type():
    def fail_on_three(x: int) -> int:
        if x == 3:
            raise ValueError(f"bad task {x}")
        return x

    with pytest.raises(ValueError, match="bad task 3"):
        pool_map(fail_on_three, range(6), 2)


def test_task_value_error_exits_2(tmp_path, monkeypatch, capsys):
    from csvnet import simharness

    def broken(*args):
        raise ValueError("no modularity here")

    monkeypatch.setattr(simharness, "modularity", broken)
    out = tmp_path / "rows.tsv"
    assert main(["simulate", "sim1", "--v", "40", "--grid", "0.1", "0.2",
                 "--replicates", "2", "--threads", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no modularity here\n"
    assert not out.exists()


def test_no_child_is_left_after_a_map():
    proc = run_python("""
        import os
        from csvnet._pool import pool_map
        assert pool_map(abs, range(-4, 4), 2) == [4, 3, 2, 1, 0, 1, 2, 3]
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("reaped")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "reaped\n"


def test_dead_worker_raises_broken_pool_and_leaves_no_child():
    proc = run_python("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from csvnet._pool import pool_map

        def die_on_two(x):
            if x == 2:
                os._exit(3)
            return x

        try:
            pool_map(die_on_two, range(4), 2)
        except BrokenProcessPool:
            print("broken")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("reaped")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "broken\nreaped\n"


def test_dead_worker_is_an_internal_error(tmp_path):
    out = tmp_path / "rows.tsv"
    proc = run_python(f"""
        import os
        os.sched_getaffinity = lambda pid: {{0, 1}}
        from csvnet import simharness
        from csvnet.cli import main
        simharness.modularity = lambda *args: os._exit(3)
        code = main(["simulate", "sim1", "--v", "40", "--grid", "0.1", "0.2",
                     "--replicates", "2", "--out", {str(out)!r}])
        print("exit", code)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exit 1\n"
    assert proc.stderr.startswith("internal error: BrokenProcessPool: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_import_loads_no_pool_machinery():
    # validate and generate never reach the pool, so they pay nothing for it.
    proc = run_python("""
        import sys
        import csvnet.cli
        print(sorted(m for m in ("multiprocessing", "concurrent.futures")
                     if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
