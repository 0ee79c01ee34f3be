"""Command-line frontend.

Subcommands: validate (score a partition on a graph), compare (pairwise
relative indices for several graphs), generate (planted-partition sampler),
cluster (community detection), and simulate (the three studies). All
randomness flows from --seed; outputs are byte-identical across reruns.
Exit codes: 0 success, 2 usage, input or out-of-memory error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from itertools import compress
from pathlib import Path

import numpy as np

from ._rng import derive_rng
from .clustering import check_newick_label, fast_greedy, louvain, to_newick
from .compare import SCHEMA_VERSION, compare_all, matrix_tsv
from .dcsbm import (
    SAMPLER_VERSION,
    DcsbmConfig,
    equal_block_sizes,
    planted_partition,
    powerlaw_weights,
    sample_dcsbm,
    theta_matrix,
)
# induced_subgraph is not called here, but perfbench/traced.py wraps this
# module's binding of it.
from .graph import (
    Partition,
    induced_subgraph,
    load_graph,
    load_partition,
    partition_lines,
    save_graph,
    save_partition,
)
# Nor are report_to_json and report_to_tsv, which perfbench/traced.py wraps.
from .indices import (
    csv_report,
    report_json_pieces,
    report_to_json,
    report_to_tsv,
    report_tsv_pieces,
)
from .simharness import rows_to_tsv, run_sim1, run_sim2, run_sim3


def _write_files(writers: dict[str | Path, Callable[[Path], None]]) -> None:
    """Write every target or none of them.

    Each writer fills a partial file ``.<name>.partial-<pid>`` beside its
    target. Then each existing target is moved aside to ``.<name>.old-<pid>``
    and every partial file is moved into place. If any step fails, the new
    files are removed and the old targets come back; the old copies are
    deleted only once every move has succeeded. A target that is a directory
    (not a symlink, which is replaced) fails before anything is written."""
    for target in map(Path, writers):
        if target.is_dir() and not target.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    pid = os.getpid()
    partials: dict[Path, Path] = {}
    aside: dict[Path, Path] = {}
    placed: list[Path] = []
    try:
        for target, write in writers.items():
            target = Path(target)
            partial = target.with_name(f".{target.name}.partial-{pid}")
            partials[partial] = target
            try:
                write(partial)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(target)) from exc
        for target in partials.values():
            if os.path.lexists(target):
                old = target.with_name(f".{target.name}.old-{pid}")
                os.replace(target, old)
                aside[target] = old
        for partial, target in partials.items():
            os.replace(partial, target)
            placed.append(target)
    except BaseException:
        for target in placed:
            target.unlink()
        for target, old in aside.items():
            os.replace(old, target)
        raise
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)
    for old in aside.values():
        old.unlink()


def _text_writer(pieces: Iterable[str]) -> Callable[[Path], None]:
    """A writer of the text ``pieces`` to a file, one write per piece."""
    def write(path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    return write


def _write_text(path: str | None, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to the file ``path``, or to stdout if None."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        _write_files({path: _text_writer(pieces)})


def cmd_validate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, directed=args.directed)
    if graph.n_edges == 0:
        raise ValueError(f"{args.graph}: edge list has no edges")
    partition = load_partition(args.partition, graph)
    report = csv_report(graph, partition, alpha=args.alpha)
    # The report is written as it is formatted, a block of tests at a time,
    # so its whole text is never held.
    pieces = report_json_pieces if args.format == "json" else report_tsv_pieces
    _write_text(args.out, pieces(report))
    return 0


def _unique_names(paths: list[str]) -> list[str]:
    """File stems as graph names. A stem's first use keeps it; a repeat takes
    the first ``-k`` suffix (k >= 2) that is neither a stem on the command
    line nor a name given already."""
    stems = [Path(path).stem for path in paths]
    taken = set(stems)
    names: list[str] = []
    for stem in stems:
        name, k = stem, 2
        if stem in names:
            while f"{stem}-{k}" in taken:
                k += 1
            name = f"{stem}-{k}"
            taken.add(name)
        names.append(name)
    return names


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.graphs) < 2:
        raise ValueError("compare needs at least two graph files")
    names = _unique_names(args.graphs)
    for name in names:
        check_newick_label(name)
    workers = _workers(args.threads)
    graphs = [(name, load_graph(path)) for name, path in zip(names, args.graphs)]
    result = compare_all(graphs, alpha=args.alpha, min_size=args.min_size,
                         seed=args.seed, use_wcsv=args.wcsv, workers=workers)
    failures = [p for p in result.per_pair if p.error is not None]
    if len(failures) == len(result.per_pair):
        for pair in failures:
            print(f"error: {pair.name_i} vs {pair.name_j}: {pair.error}",
                  file=sys.stderr)
        return 2
    summary = {
        "schema_version": SCHEMA_VERSION,
        "alpha": args.alpha,
        "min_size": args.min_size,
        "seed": args.seed,
        "use_wcsv": args.wcsv,
        "names": list(result.names),
        "failed_pairs": len(failures),
        "pairs": [dataclasses.asdict(p) for p in result.per_pair],
    }
    files = {
        "R.tsv": matrix_tsv(result.names, result.r_matrix),
        "S.tsv": matrix_tsv(result.names, result.s_matrix),
        "D.tsv": matrix_tsv(result.names, result.d_matrix.values),
        "dendrogram.nwk": to_newick(result.dendrogram()) + "\n",
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }
    out_dir = Path(args.out_dir)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write_files({out_dir / name: _text_writer([text]) for name, text in files.items()})
    except OSError:
        # A failed write leaves nothing, so a directory this run made is empty.
        if created:
            out_dir.rmdir()
        raise
    print(f"compared {len(result.names)} graphs; wrote 5 files to {out_dir}")
    return 0


def _generate_settings(args: argparse.Namespace) -> dict:
    settings = {"v": 500, "blocks": 8, "theta_within": 0.3,
                "theta_between": 0.01, "weight_mode": "uniform", "seed": 0}
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # Any number may be an int; an int weight_mode fails further down.
        # No setting is a bool, and JSON true/false would pass as an int.
        wrong = sorted(key for key, value in loaded.items()
                       if isinstance(value, bool)
                       or not isinstance(value, (int, type(settings[key]))))
        if wrong:
            raise ValueError(f"config keys of the wrong type: {wrong}")
        settings.update(loaded)
    for field in settings:
        flag = getattr(args, field)
        if flag is not None:
            settings[field] = flag
    return settings


_NO_EDGES = "generated graph has no edges; raise theta or v"


def cmd_generate(args: argparse.Namespace) -> int:
    if os.path.realpath(args.out_graph) == os.path.realpath(args.out_partition):
        raise ValueError(f"--out-graph and --out-partition name one file: {args.out_graph}")
    s = _generate_settings(args)
    sizes = equal_block_sizes(s["v"], s["blocks"])
    theta = theta_matrix(s["theta_within"], s["theta_between"], s["blocks"])
    # Checked before any per-node array is built: with every rate zero the
    # graph has no edges at any v.
    if not theta.any():
        raise ValueError(_NO_EDGES)
    partition = planted_partition(sizes)
    if s["weight_mode"] == "uniform":
        weights = np.ones(s["v"])
    elif s["weight_mode"] == "powerlaw":
        weights = powerlaw_weights(partition, seed=derive_rng(s["seed"], 101))
    else:
        raise ValueError(f"unknown weight_mode {s['weight_mode']!r}")
    config = DcsbmConfig(sizes, theta, weights, seed=s["seed"])
    graph, partition = sample_dcsbm(config)
    if graph.n_edges == 0:
        raise ValueError(_NO_EDGES)
    # The edge list cannot hold isolated nodes, so the partition covers
    # only the nodes that a reload of the graph file will see.
    mask = graph.degrees > 0
    connected = list(compress(graph.node_labels, mask.tolist()))
    kept = Partition(partition.assignment[mask], partition.q)
    _write_files({
        args.out_graph: lambda path: save_graph(graph, path),
        args.out_partition: lambda path: save_partition(kept, connected, path),
    })
    print(f"wrote {graph.n_nodes} nodes, {graph.n_edges} edges "
          f"(DC-SBM sampler v{SAMPLER_VERSION}) to "
          f"{args.out_graph}; partition of {len(connected)} connected nodes "
          f"to {args.out_partition}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    if args.algorithm == "louvain":
        partition = louvain(graph, args.seed)
    else:
        partition = fast_greedy(graph)
    _write_text(args.out, partition_lines(partition, graph.node_labels))
    return 0


# simulate flag -> study parameter. Flags left unset are not passed, so the
# study function's own defaults apply; a flag only other studies take is an
# error.
_SIM_PARAMS = {
    "sim1": {"v": "v_list", "grid": "theta_between_grid"},
    "sim2": {"v": "v", "levels": "theta_between_levels",
             "degradation_grid": "degradation_grid"},
    "sim3": {"v": "v", "levels": "theta_between_levels", "algorithms": "algorithms"},
}


def cmd_simulate(args: argparse.Namespace) -> int:
    own = _SIM_PARAMS[args.sim]
    for flag in dict.fromkeys(f for params in _SIM_PARAMS.values() for f in params):
        if flag not in own and getattr(args, flag) is not None:
            raise ValueError(f"{args.sim} does not take --{flag.replace('_', '-')}")
    flags = {f: f for f in ("replicates", "seed", "alpha")} | own
    params = {param: getattr(args, flag) for flag, param in flags.items()
              if getattr(args, flag) is not None}
    if "v" in params:
        if len(params["v"]) != 1:
            raise ValueError(f"{args.sim} takes a single --v value")
        params["v"] = params["v"][0]
    # Looked up per call: perfbench/traced.py rebinds this module's run_sim3.
    run = {"sim1": run_sim1, "sim2": run_sim2, "sim3": run_sim3}[args.sim]
    rows = run(**params, workers=_workers(args.threads))
    _write_text(args.out, [rows_to_tsv(rows)])
    return 0


def _workers(threads: int | None) -> int:
    """--threads as a worker count, clamped to the CPUs this process may use."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if threads is None:
        return cpus
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return min(threads, cpus)


_THREADS_HELP = ("forked worker processes (default and cap: the CPUs this process may "
                 "run on); 1, or a platform without fork, runs in-process. Output "
                 "bytes are the same at any count; CSVNET_THREADS is ignored")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csvnet",
        description="Statistical validation of graph partitions as "
                    "community structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="score a partition on a graph")
    p_val.add_argument("graph", help="edge-list file")
    p_val.add_argument("partition", help="node-community file")
    p_val.add_argument("--alpha", type=float, default=0.05)
    p_val.add_argument("--directed", action="store_true")
    p_val.add_argument("--format", choices=("json", "tsv"), default="json")
    p_val.add_argument("--out", default=None, help="output file (default stdout)")
    p_val.set_defaults(func=cmd_validate)

    p_cmp = sub.add_parser("compare", help="pairwise relative indices")
    p_cmp.add_argument("graphs", nargs="+", help="two or more edge-list files")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument("--min-size", type=int, default=5, dest="min_size")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--wcsv", action="store_true",
                       help="use the weighted index in the ratios")
    p_cmp.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p_cmp.add_argument("--out-dir", default="csvnet_compare", dest="out_dir")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("generate", help="sample a planted-partition graph")
    p_gen.add_argument("--config", default=None, help="JSON settings file")
    p_gen.add_argument("--v", type=int, default=None)
    p_gen.add_argument("--blocks", type=int, default=None)
    p_gen.add_argument("--theta-within", type=float, default=None,
                       dest="theta_within")
    p_gen.add_argument("--theta-between", type=float, default=None,
                       dest="theta_between")
    p_gen.add_argument("--weight-mode", choices=("uniform", "powerlaw"),
                       default=None, dest="weight_mode")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out-graph", default="graph.tsv", dest="out_graph")
    p_gen.add_argument("--out-partition", default="partition.tsv",
                       dest="out_partition")
    p_gen.set_defaults(func=cmd_generate)

    p_clu = sub.add_parser("cluster", help="detect communities")
    p_clu.add_argument("graph", help="edge-list file")
    p_clu.add_argument("--algorithm", choices=("louvain", "fast_greedy"),
                       default="louvain")
    p_clu.add_argument("--seed", type=int, default=0)
    p_clu.add_argument("--out", default=None, help="output file (default stdout)")
    p_clu.set_defaults(func=cmd_cluster)

    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.add_argument("sim", choices=("sim1", "sim2", "sim3"))
    p_sim.add_argument("--v", type=int, nargs="+", default=None)
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--grid", type=float, nargs="+", default=None,
                       help="between-rate grid (sim1)")
    p_sim.add_argument("--levels", type=float, nargs="+", default=None,
                       help="between-rate levels (sim2, sim3)")
    p_sim.add_argument("--degradation-grid", type=float, nargs="+",
                       default=None, dest="degradation_grid")
    p_sim.add_argument("--algorithms", nargs="+", default=None,
                       help="louvain, fast_greedy, or external:<path> (sim3)")
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p_sim.add_argument("--out", default=None, help="output file (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
