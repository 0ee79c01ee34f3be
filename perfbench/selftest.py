"""Self-test of the benchmark at toy size.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload: one untraced round and one traced round must pass their
checks, and each deliberate corruption of an output must make a check fail,
so that no check passes vacuously. Also checks that BENCHMARK.json names the
metrics run.py prints, and that run.py refuses to run without src/. Exits
non-zero on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def _edit_json(key: str, change):
    def edit(text: str) -> str:
        payload = json.loads(text)
        payload[key] = change(payload[key])
        return json.dumps(payload)
    return edit


def _edit_cell(row: int, col: int, value: str):
    def edit(text: str) -> str:
        lines = [line.split("\t") for line in text.splitlines()]
        lines[row][col] = value
        return "\n".join("\t".join(cells) for cells in lines) + "\n"
    return edit


def _drop_lines(every: int):
    def edit(text: str) -> str:
        lines = text.splitlines()
        return "\n".join(line for i, line in enumerate(lines) if i % every) + "\n"
    return edit


# workload -> [(what, command index, output index, edit of the file's text)]
CORRUPTIONS = {
    "validate": [
        ("WCSV moved by 1e-6", 0, 0, _edit_json("wcsv", lambda x: x + 1e-6)),
        ("one test dropped", 0, 0, _edit_json("tests", lambda t: t[1:])),
        ("TSV UCSV changed", 1, 0,
         lambda t: re.sub(r"(?m)^index\tucsv\t.*$", "index\tucsv\t0.123", t)),
    ],
    "compare": [
        ("D asymmetric", 0, 2, _edit_cell(1, 2, "0.999")),
        ("D diagonal non-zero", 0, 2, _edit_cell(1, 1, "0.5")),
        ("D above 1", 0, 2, lambda t: _edit_cell(2, 1, "1.5")(_edit_cell(1, 2, "1.5")(t))),
        ("Newick leaf renamed", 0, 3, lambda t: t.replace("net5", "net9")),
        ("a failed pair", 0, 4, _edit_json("failed_pairs", lambda x: 1)),
    ],
    "sim3": [
        ("row dropped", 0, 0, lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
        ("UCSV above 1", 0, 0, _edit_cell(2, 7, "1.5")),
        ("schema line changed", 0, 0, lambda t: t.replace("schema_version=1", "schema_version=9")),
    ],
    "generate": [
        ("a fifth of the edges dropped", 0, 0, _drop_lines(5)),
        ("a duplicate edge", 0, 0, lambda t: t + t.splitlines()[0] + "\n"),
        ("a partition line dropped", 0, 1, lambda t: "\n".join(t.splitlines()[1:]) + "\n"),
    ],
}


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_workload(root: Path, name: str) -> None:
    bench = run.Bench(root, name, seed=3, toy=True)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    plan, _, _ = bench.setup()
    bench.round(plan, one_thread=False)
    if bench.failures:
        fail(f"{name}: toy round failed: {bench.failures}")
    trace = bench.traced_round(plan)  # outputs must match the untraced bytes
    if bench.failures:
        fail(f"{name}: traced round failed: {bench.failures}")
    coverage = run.layer_metrics(trace, root)["trace.coverage"]
    if not 0.0 < coverage <= 1.0:
        fail(f"{name}: trace coverage {coverage}")

    for what, ci, oi, edit in CORRUPTIONS[name]:
        command = plan.commands[ci]
        path = root / command.outputs[oi]
        original = path.read_bytes()
        path.write_text(edit(original.decode("utf-8")), encoding="utf-8")
        try:
            problem = command.check()
            if problem is None:
                fail(f"{name}: check passed an output with {what}")
            bench.tally(plan, [0] * len(plan.commands), [""] * len(plan.commands))
            if not bench.failures:
                fail(f"{name}: changed bytes went unnoticed after {what}")
            bench.failures.clear()
        finally:
            path.write_bytes(original)
        print(f"  {name}: {what} -> {problem}")
    print(f"{name}: ok ({bench.attempted} ops, coverage {coverage:.3f})")


def check_benchmark_json(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            fail(f"BENCHMARK.json {key} differs from run.py")


def check_refuses_without_source(root: Path) -> None:
    bare = root / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("run.py printed a result without src/")
    print("run.py without src/: exit", done.returncode)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    check_benchmark_json(root)
    check_refuses_without_source(root)
    for name in WORKLOADS:
        check_workload(root, name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
