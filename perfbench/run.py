"""csvnet benchmark: run one workload through the csvnet CLI, check every
output, and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim3 --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. A run first sets up at least five
times and for at least two seconds (each set-up writes the workload's inputs
from --seed and imports csvnet once in a fresh process) and reports the
median as ``setup_s``. Then:

--trace 0  runs rounds of the workload's commands, each command in a fresh
           ``python -m csvnet`` process with default threads, until the
           next round would pass --seconds, and prints end-to-end metrics.
--trace 1  runs rounds of three passes: untraced at default threads,
           untraced at one thread, and in one process through traced.py
           with --threads 1, and prints per-layer metrics.

An operation is one CLI command. It fails if it exits non-zero or its output
fails the workload's check; after the first round, outputs must be
byte-identical to the first round's. The last line of standard output is
one JSON object; a full report goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Plan

HERE = Path(__file__).resolve().parent
# A single set-up of a light workload is one ~0.3 s import, too short to
# time alone on a noisy machine; the median needs several samples.
SETUP_MIN_RUNS, SETUP_MIN_SECONDS = 5, 2.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "units/s",
    "peak_rss_mib": "MiB",
    "success_rate": "fraction",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "graph.load_graph_s": "s",
    "graph.lines_read": "count",
    "graph.lines_dropped": "count",
    "graph.load_partition_s": "s",
    "graph.save_graph_s": "s",
    "graph.induced_subgraph_s": "s",
    "graph.induced_subgraph_calls": "count",
    "dcsbm.sample_graph_s": "s",
    "dcsbm.edges_sampled": "count",
    "dcsbm.sample_peak_mib": "MiB",
    "clustering.louvain_s": "s",
    "clustering.louvain_calls": "count",
    "clustering.fast_greedy_s": "s",
    "clustering.fast_greedy_calls": "count",
    "clustering.louvain_modularity_mean": "Q",
    "clustering.fast_greedy_modularity_mean": "Q",
    "clustering.detected_q_mean": "Q",
    "clustering.complete_linkage_s": "s",
    "enrichment.enrichment_matrix_s": "s",
    "enrichment.tests": "count",
    "enrichment.degenerate_tests": "count",
    "enrichment.us_per_test": "us",
    "stats.mid_p_s": "s",
    "stats.mid_p_calls": "count",
    "stats.bh_adjust_s": "s",
    "indices.csv_report_self_s": "s",
    "indices.report_to_json_s": "s",
    "indices.report_to_tsv_s": "s",
    "compare.compare_all_s": "s",
    "compare.compare_all_self_s": "s",
    "compare.pairs": "count",
    "compare.pairs_failed": "count",
    "compare.undefined_entries": "count",
    "simharness.run_sim3_s": "s",
    "simharness.self_s": "s",
    "simharness.cells": "count",
    "parallel.pool_gain": "ratio",
    "parallel.threads1_wall_s": "s",
    "parallel.default_wall_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.traced_wall_s": "s",
}


@dataclass
class Proc:
    wall_s: float
    rss_mib: float
    cpu_s: float
    exit_code: int
    stderr: str


class Bench:
    """One workload's working directories, child environment and op tally."""

    def __init__(self, root: Path, workload: str, seed: int, toy: bool = False):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.toy = toy
        self.work = root / ".perfbench_out" / workload
        self.inputs = self.work / "inputs"
        self.outputs = self.work / "outputs"
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}

    def env(self, one_thread: bool) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env.pop("CSVNET_THREADS", None)
        if one_thread:
            env["CSVNET_THREADS"] = "1"
        return env

    def spawn(self, cmd: list[str], env: dict, peak_file: Path | None = None) -> Proc:
        """Run one child to completion; rusage comes from os.wait4, and the
        peak RSS from ``peak_file`` when the child writes one (peak.py)."""
        err_path = self.work / "stderr.txt"
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kib = usage.ru_maxrss
        if peak_file is not None and peak_file.exists():
            peak_kib = int(peak_file.read_text(encoding="ascii"))
            peak_file.unlink()
        return Proc(wall, peak_kib / 1024.0, usage.ru_utime + usage.ru_stime,
                    proc.returncode, err_path.read_text(errors="replace")[-2000:])

    def setup(self) -> tuple[Plan, float, float]:
        """Write the inputs and import csvnet once; (plan, seconds, import seconds)."""
        start = time.perf_counter()
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        plan = self.workload.prepare(self.inputs.relative_to(self.root),
                                     self.outputs.relative_to(self.root),
                                     self.seed, self.toy)
        imp = self.spawn([sys.executable, "-c", "import csvnet"], self.env(False))
        if imp.exit_code != 0:
            raise SystemExit(f"csvnet does not import from src/: {imp.stderr}")
        return plan, time.perf_counter() - start, imp.wall_s

    def fresh_outputs(self) -> None:
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir(parents=True)

    def round(self, plan: Plan, one_thread: bool) -> list[Proc]:
        """Every command of the workload, each in a fresh process."""
        self.fresh_outputs()
        env = self.env(one_thread)
        procs = []
        for command in plan.commands:
            argv = command.argv + (["--threads", "1"] if one_thread and command.threaded else [])
            peak_file = self.work / "peak_kib.txt"
            procs.append(self.spawn([sys.executable, str(HERE / "peak.py"), str(peak_file),
                                     *argv], env, peak_file))
        self.tally(plan, [p.exit_code for p in procs], [p.stderr for p in procs])
        return procs

    def traced_round(self, plan: Plan) -> dict:
        """All commands in one process under traced.py, with --threads 1."""
        self.fresh_outputs()
        commands = [c.argv + (["--threads", "1"] if c.threaded else []) for c in plan.commands]
        cmd_file, trace_file = self.work / "commands.json", self.work / "trace.json"
        cmd_file.write_text(json.dumps(commands), encoding="utf-8")
        proc = self.spawn([sys.executable, str(HERE / "traced.py"),
                           str(cmd_file), str(trace_file)], self.env(True))
        if proc.exit_code != 0:
            raise SystemExit(f"traced run failed: {proc.stderr}")
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        self.tally(plan, [r["exit_code"] for r in trace["runs"]], [proc.stderr] * len(commands))
        return trace

    def tally(self, plan: Plan, codes: list[int], stderrs: list[str]) -> None:
        """Count each command as an op and record why any failed.

        The first outputs are checked by the workload; later ones must match
        their bytes (csvnet promises identical output for any rerun and
        thread count)."""
        for command, code, stderr in zip(plan.commands, codes, stderrs):
            self.attempted += 1
            if code != 0:
                self.failures.append(f"{command.argv[0]} exited {code}: {stderr.strip()}")
                continue
            if not self.hashes:
                problem = command.check()
            else:
                problem = next((f"{p} changed bytes between rounds" for p in command.outputs
                                if _sha256(self.root / p) != self.hashes.get(str(p))), None)
            if problem:
                self.failures.append(f"{command.argv[0]}: {problem}")
        if not self.hashes and not self.failures:
            self.hashes = {str(p): _sha256(self.root / p)
                           for c in plan.commands for p in c.outputs}


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _median(values) -> float:
    return float(statistics.median(values))


def _rounds(seconds: float, one_round) -> list:
    """Run rounds until the next one would end after ``seconds``; at least one."""
    results, spent = [], 0.0
    while True:
        start = time.perf_counter()
        results.append(one_round())
        last = time.perf_counter() - start
        spent += last
        if spent + last > seconds:
            return results


def _count_data_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def layer_metrics(trace: dict, root: Path) -> dict[str, float]:
    """Per-layer times and counts from one traced round."""
    dur: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    top = 0.0
    spans = trace["spans"]
    for name, start, end, parent in spans:
        d = end - start
        dur[name] += d
        own[name] += d
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= d
        else:
            top += d
    counts = trace["counts"]
    lines_read = sum(_count_data_lines(root / path) for path, _ in trace["loaded"])
    q = trace["modularity"]
    detected = q["louvain"] + q["fast_greedy"]
    tests = counts.get("tests", 0)
    wall = sum(r["end"] - r["start"] for r in trace["runs"])
    return {
        "graph.load_graph_s": dur["graph.load_graph"],
        "graph.lines_read": lines_read,
        "graph.lines_dropped": lines_read - sum(n for _, n in trace["loaded"]),
        "graph.load_partition_s": dur["graph.load_partition"],
        "graph.save_graph_s": dur["graph.save_graph"],
        "graph.induced_subgraph_s": dur["graph.induced_subgraph"],
        "graph.induced_subgraph_calls": calls["graph.induced_subgraph"],
        "dcsbm.sample_graph_s": dur["dcsbm.sample_graph"],
        "dcsbm.edges_sampled": counts.get("edges_sampled", 0),
        "dcsbm.sample_peak_mib": trace["sample_peak_bytes"] / 2**20,
        "clustering.louvain_s": dur["clustering.louvain"],
        "clustering.louvain_calls": calls["clustering.louvain"],
        "clustering.fast_greedy_s": dur["clustering.fast_greedy"],
        "clustering.fast_greedy_calls": calls["clustering.fast_greedy"],
        "clustering.louvain_modularity_mean": float(np.mean(q["louvain"])) if q["louvain"] else 0.0,
        "clustering.fast_greedy_modularity_mean":
            float(np.mean(q["fast_greedy"])) if q["fast_greedy"] else 0.0,
        "clustering.detected_q_mean": float(np.mean(detected)) if detected else 0.0,
        "clustering.complete_linkage_s": dur["clustering.complete_linkage"],
        "enrichment.enrichment_matrix_s": dur["enrichment.enrichment_matrix"],
        "enrichment.tests": tests,
        "enrichment.degenerate_tests": counts.get("degenerate_tests", 0),
        "enrichment.us_per_test": 1e6 * dur["enrichment.enrichment_matrix"] / tests if tests else 0.0,
        "stats.mid_p_s": dur["stats.upper_mid_p"] + dur["stats.lower_mid_p"],
        "stats.mid_p_calls": calls["stats.upper_mid_p"] + calls["stats.lower_mid_p"],
        "stats.bh_adjust_s": dur["stats.bh_adjust"],
        "indices.csv_report_self_s": own["indices.csv_report"],
        "indices.report_to_json_s": dur["indices.report_to_json"],
        "indices.report_to_tsv_s": dur["indices.report_to_tsv"],
        "compare.compare_all_s": dur["compare.compare_all"],
        "compare.compare_all_self_s": own["compare.compare_all"],
        "compare.pairs": counts.get("pairs", 0),
        "compare.pairs_failed": counts.get("pairs_failed", 0),
        "compare.undefined_entries": counts.get("undefined_entries", 0),
        "simharness.run_sim3_s": dur["simharness.run_sim3"],
        "simharness.self_s": own["simharness.run_sim3"],
        "simharness.cells": counts.get("cells", 0),
        "trace.coverage": top / wall,
        "trace.traced_wall_s": wall,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(metrics, details) for one run."""
    setups: list = []
    while len(setups) < SETUP_MIN_RUNS or sum(s[1] for s in setups) < SETUP_MIN_SECONDS:
        setups.append(bench.setup())
    plan = setups[-1][0]
    setup_s = _median(s[1] for s in setups)
    import_s = _median(s[2] for s in setups)
    details: dict = {"setup_s": [s[1] for s in setups], "import_s": [s[2] for s in setups]}

    if not trace:
        rounds = _rounds(seconds, lambda: bench.round(plan, one_thread=False))
        walls = [sum(p.wall_s for p in procs) for procs in rounds]
        wall = _median(walls)
        ok = bench.attempted - len(bench.failures)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "units_per_s": plan.units() / wall,
            "peak_rss_mib": max(p.rss_mib for procs in rounds for p in procs),
            "success_rate": ok / bench.attempted,
        }
        details.update(round_wall_s=walls,
                       round_peak_rss_mib=[max(p.rss_mib for p in procs) for procs in rounds],
                       units_per_round=plan.units(),
                       unit=plan.unit_name, error_rate=1.0 - metrics["success_rate"])
        return metrics, details

    def one_round():
        default = bench.round(plan, one_thread=False)
        single = bench.round(plan, one_thread=True)
        return default, single, bench.traced_round(plan)

    rounds = _rounds(seconds, one_round)
    default_wall = _median([sum(p.wall_s for p in r[0]) for r in rounds])
    single_wall = _median([sum(p.wall_s for p in r[1]) for r in rounds])
    per_round = [layer_metrics(r[2], bench.root) for r in rounds]
    metrics = {name: _median([m[name] for m in per_round]) for name in per_round[0]}
    # The untraced commands each pay an interpreter start and import, which
    # the in-process traced wall does not contain.
    untraced = single_wall - import_s * len(plan.commands)
    metrics.update({
        "cli.import_s": import_s,
        "cli.cpu_s": _median([sum(p.cpu_s for p in r[0]) for r in rounds]),
        "parallel.pool_gain": single_wall / default_wall,
        "parallel.threads1_wall_s": single_wall,
        "parallel.default_wall_s": default_wall,
        "trace.overhead_frac": metrics["trace.traced_wall_s"] / untraced - 1.0,
    })
    details.update(round_default_wall_s=[sum(p.wall_s for p in r[0]) for r in rounds],
                   round_threads1_wall_s=[sum(p.wall_s for p in r[1]) for r in rounds])
    return metrics, details


def environment(root: Path) -> dict:
    """What a later run needs to tell whether it measured the same thing."""
    commit = None
    if shutil.which("git") and (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "csvnet" / "__init__.py").is_file():
        print("error: run from the repository root; src/csvnet is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    values, details = measure(bench, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "attempted": bench.attempted, "failures": bench.failures,
        "outputs_sha256": bench.hashes, "details": details, "metrics": metrics,
    }
    report_path = root / ".perfbench_out" / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {bench.attempted}  failed {len(bench.failures)}  "
          f"error_rate {len(bench.failures) / bench.attempted:g}  "
          f"report {report_path.relative_to(root)}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
