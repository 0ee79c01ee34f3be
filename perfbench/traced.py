"""Run csvnet CLI commands in one process with spans around layer calls.

Usage, from the repository root:

    python3 perfbench/traced.py COMMANDS.json TRACE.json

COMMANDS.json is a list of argument lists for ``csvnet.cli.main``. Before
they run, each public function named in ``BINDINGS`` is replaced, in the
module that calls it, by a wrapper that records a span (name, start, end,
parent) in memory. Nesting is exact only when the commands run with one
thread. TRACE.json receives the spans, per-command wall times and exit
codes, and the counters gathered at the same boundaries.
"""

from __future__ import annotations

import copy
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

# (calling module, bound name, span name)
BINDINGS = [
    ("cli", "load_graph", "graph.load_graph"),
    ("cli", "load_partition", "graph.load_partition"),
    ("cli", "save_graph", "graph.save_graph"),
    ("cli", "save_partition", "graph.save_partition"),
    ("cli", "induced_subgraph", "graph.induced_subgraph"),
    ("cli", "sample_dcsbm", "dcsbm.sample_dcsbm"),
    ("cli", "csv_report", "indices.csv_report"),
    ("cli", "report_to_json", "indices.report_to_json"),
    ("cli", "report_to_tsv", "indices.report_to_tsv"),
    ("cli", "compare_all", "compare.compare_all"),
    ("cli", "matrix_tsv", "compare.matrix_tsv"),
    ("cli", "to_newick", "clustering.to_newick"),
    ("cli", "louvain", "clustering.louvain"),
    ("cli", "fast_greedy", "clustering.fast_greedy"),
    ("cli", "run_sim3", "simharness.run_sim3"),
    ("cli", "rows_to_tsv", "simharness.rows_to_tsv"),
    ("compare", "induced_subgraph", "graph.induced_subgraph"),
    ("compare", "louvain", "clustering.louvain"),
    ("compare", "csv_report", "indices.csv_report"),
    ("compare", "complete_linkage", "clustering.complete_linkage"),
    ("simharness", "sample_graph", "dcsbm.sample_graph"),
    ("simharness", "louvain", "clustering.louvain"),
    ("simharness", "fast_greedy", "clustering.fast_greedy"),
    ("simharness", "modularity", "clustering.modularity"),
    ("simharness", "csv_report", "indices.csv_report"),
    ("dcsbm", "sample_graph", "dcsbm.sample_graph"),
    ("indices", "enrichment_matrix", "enrichment.enrichment_matrix"),
    ("enrichment", "upper_mid_p", "stats.upper_mid_p"),
    ("enrichment", "lower_mid_p", "stats.lower_mid_p"),
    ("enrichment", "bh_adjust", "stats.bh_adjust"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.loaded: list[tuple[str, int]] = []  # (edge-list path, edges kept)
        self.detected: list[tuple[str, object, object]] = []  # (algorithm, graph, partition)
        self.samples: list = []  # (sample_graph, copied arguments)

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        after = getattr(self, "_after_" + attr, None)

        def traced(*args, **kwargs):
            if attr == "sample_graph":
                # A copy of the arguments, random stream included, so the
                # call can be replayed under tracemalloc after the run.
                self.samples.append((fn, copy.deepcopy((args, kwargs))))
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)

    def sample_peak_bytes(self) -> int:
        """Largest tracemalloc peak over replays of the sample_graph calls.

        tracemalloc roughly doubles the sampler's time, so the peak is taken
        on a replay outside every span rather than on the timed call."""
        peak = 0
        for fn, (args, kwargs) in self.samples:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak

    # Counters taken at the same boundaries; each is O(1) or one pass over
    # the result, run after the span has closed.
    def _after_load_graph(self, args, graph) -> None:
        self.loaded.append((str(args[0]), graph.n_edges))

    def _after_sample_graph(self, args, graph) -> None:
        self.counts["edges_sampled"] += graph.n_edges

    def _after_louvain(self, args, partition) -> None:
        self.detected.append(("louvain", args[0], partition))

    def _after_fast_greedy(self, args, partition) -> None:
        self.detected.append(("fast_greedy", args[0], partition))

    def _after_enrichment_matrix(self, args, matrix) -> None:
        self.counts["tests"] += len(matrix.results)
        self.counts["degenerate_tests"] += sum(res.degenerate for res in matrix.results)

    def _after_compare_all(self, args, result) -> None:
        n = len(result.names)
        self.counts["pairs"] += len(result.per_pair)
        self.counts["pairs_failed"] += sum(p.error is not None for p in result.per_pair)
        self.counts["undefined_entries"] += int(n * n - result.defined.sum())

    def _after_run_sim3(self, args, rows) -> None:
        self.counts["cells"] += len({(r.theta_between, r.replicate) for r in rows})


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    commands = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, "src")
    import importlib

    import csvnet.cli
    from csvnet.clustering import modularity

    tracer = Tracer()
    for module, attr, name in BINDINGS:
        tracer.wrap(importlib.import_module(f"csvnet.{module}"), attr, name)
    runs = []
    for args in commands:
        start = perf_counter()
        code = csvnet.cli.main(args)
        runs.append({"argv": args, "exit_code": code,
                     "start": start, "end": perf_counter()})
    # Modularity of every detected partition, outside all spans.
    q_values: dict[str, list[float]] = {"louvain": [], "fast_greedy": []}
    for algorithm, graph, partition in tracer.detected:
        q_values[algorithm].append(modularity(graph, partition))
    Path(argv[2]).write_text(json.dumps({
        "runs": runs,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "loaded": tracer.loaded,
        "modularity": q_values,
        "sample_peak_bytes": tracer.sample_peak_bytes(),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
