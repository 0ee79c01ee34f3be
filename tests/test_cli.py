"""End-to-end command-line tests driving main() in-process."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import random_graph

from csvnet import cli, enrichment
from csvnet.cli import _workers, main
from csvnet.graph import Partition
from csvnet.indices import (
    csv_report,
    report_json_pieces,
    report_to_json,
    report_to_tsv,
    report_tsv_pieces,
)
from csvnet.simharness import rows_to_tsv, run_sim1, run_sim2, run_sim3


@pytest.fixture
def triangles(tmp_path: Path) -> tuple[str, str]:
    graph = tmp_path / "triangles.tsv"
    graph.write_text(
        "a\tb\na\tc\nb\tc\nd\te\nd\tf\ne\tf\n", encoding="utf-8")
    partition = tmp_path / "parts.tsv"
    partition.write_text(
        "a\tx\nb\tx\nc\tx\nd\ty\ne\ty\nf\ty\n", encoding="utf-8")
    return str(graph), str(partition)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def src_env() -> dict[str, str]:
    """This environment with the package's source first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return os.environ | {"PYTHONPATH": src + os.pathsep + path if path else src}


def test_validate_json_output(triangles, capsys):
    graph, partition = triangles
    assert main(["validate", graph, partition]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 2
    assert payload["ucsv"] == 1.0
    assert payload["q"] == 2


def test_validate_tsv_to_file(triangles, tmp_path, capsys):
    graph, partition = triangles
    out = tmp_path / "report.tsv"
    assert main(["validate", graph, partition,
                 "--format", "tsv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = read(out)
    assert text.startswith("# csvnet report schema_version=2\n")
    assert "\nindex\tucsv\t1.0\n" in text


def test_report_writer_memory(tmp_path):
    # A 20,100-test family (q = 200). Built whole and then written, the text
    # is held next to its per-test strings or its encoded copy, at about
    # twice the text; the validate writer holds one block of tests at a time.
    graph = random_graph(np.random.default_rng(11), 2000, 10_000)
    report = csv_report(graph, Partition(np.arange(2000) % 200, 200))
    assert report.matrix.r.size == 20_100
    out = tmp_path / "report"
    for pieces, whole in ((report_json_pieces, report_to_json),
                          (report_tsv_pieces, report_to_tsv)):
        peaks = []
        for text in (lambda: pieces(report), lambda: [whole(report)]):
            tracemalloc.start()
            try:
                cli._write_text(str(out), text())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] / 2, (whole.__name__, peaks)
        assert read(out) == whole(report)


def test_validate_failed_stream_keeps_old_report(tmp_path, capsys, monkeypatch):
    # A write that fails after some blocks of tests are in the partial file
    # removes that file and leaves the old report in place.
    graph = random_graph(np.random.default_rng(12), 60, 200)
    graph_path, part_path = tmp_path / "g.tsv", tmp_path / "p.tsv"
    graph_path.write_text("".join(f"{graph.node_labels[u]}\t{graph.node_labels[v]}\n"
                                  for u, v in graph.edges.tolist()), encoding="utf-8")
    part_path.write_text("".join(f"{lab}\tc{i % 10}\n"
                                 for i, lab in enumerate(graph.node_labels)), encoding="utf-8")
    out = tmp_path / "report.json"
    out.write_text("old report\n", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(enrichment, "_RECORD_BLOCK", 4)

    def failing(report):
        pieces = report_json_pieces(report)
        for _ in range(3):
            yield next(pieces)
        assert [p.name for p in tmp_path.iterdir() if ".partial-" in p.name]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "report_json_pieces", failing)
    assert main(["validate", str(graph_path), str(part_path), "--out", str(out)]) == 2
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert read(out) == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_validate_partition_missing_node(triangles, tmp_path, capsys):
    graph, _ = triangles
    partial = tmp_path / "partial.tsv"
    partial.write_text("a\tx\nb\tx\nc\tx\nd\ty\ne\ty\n", encoding="utf-8")
    assert main(["validate", graph, str(partial)]) == 2
    assert "'f'" in capsys.readouterr().err


def test_validate_alpha_out_of_range(triangles, capsys):
    graph, partition = triangles
    assert main(["validate", graph, partition, "--alpha", "1.5"]) == 2
    assert "alpha out of range" in capsys.readouterr().err


def test_validate_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\nc\n", encoding="utf-8")
    part = tmp_path / "p.tsv"
    part.write_text("a\tx\nb\tx\n", encoding="utf-8")
    assert main(["validate", str(bad), str(part)]) == 2
    err = capsys.readouterr().err
    assert "bad.tsv:2" in err


def test_validate_warnings_are_one_line_each(tmp_path, capsys):
    # One self-loop line and one repeated edge line: two summary warnings,
    # each shown as a single line with no Python source line after it.
    graph = tmp_path / "g.tsv"
    graph.write_text("a\tb\nb\tc\nc\tc\nb\ta\n", encoding="utf-8")
    part = tmp_path / "p.tsv"
    part.write_text("a\tx\nb\tx\nc\ty\n", encoding="utf-8")
    assert main(["validate", str(graph), str(part), "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {graph}: dropped 1 self-loop line(s)",
        f"warning: {graph}: deduplicated 1 repeated edge line(s)",
    ]


def test_validate_non_utf8_partition_names_the_file(triangles, tmp_path, capsys):
    graph, _ = triangles
    part = tmp_path / "latin1.tsv"
    part.write_bytes(b"a\tx\nb\tx\nc\t\xe9t\xe9\nd\ty\ne\ty\nf\ty\n")
    assert main(["validate", graph, str(part)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{part}:3: not UTF-8 text" in err


def test_compare_non_utf8_graph_names_the_file(tmp_path, capsys):
    paths = [clique_pair_file(tmp_path, f"g{i}.tsv", k=6 + i) for i in range(3)]
    Path(paths[1]).write_bytes(Path(paths[1]).read_bytes() + b"n1\tn\xff\n")
    out_dir = tmp_path / "never"
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{paths[1]}:43: not UTF-8 text" in err
    assert not out_dir.exists()


def test_validate_never_loads_the_hash_library(triangles):
    # hashlib loads OpenSSL's libcrypto, a few MiB of resident memory; only
    # compare's per-pair name keys use it, and import it when they run.
    graph, partition = triangles
    code = ("import runpy, sys\n"
            "import csvnet.cli\n"
            "assert '_hashlib' not in sys.modules, 'loaded by the import'\n"
            f"sys.argv = ['csvnet', 'validate', {graph!r}, {partition!r}]\n"
            "try:\n"
            "    runpy.run_module('csvnet', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert '_hashlib' not in sys.modules, 'loaded by validate'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Bytes of address space for each capped run; csvnet starts in about 190 MiB.
_ADDRESS_SPACE_CAP = 512 << 20


def _memory_case(case: str, tmp_path: Path) -> tuple[list[str], str]:
    """argv and the start of stderr for a run whose family or sample does not
    fit under the cap."""
    if case == "validate":
        n, q = 10_000, 5_000  # 12,502,500 tests: about 2 GiB at full size
        graph, part = tmp_path / "ring.tsv", tmp_path / "part.tsv"
        graph.write_text("".join(f"n{i} n{(i + 1) % n}\n" for i in range(n)), encoding="utf-8")
        part.write_text("".join(f"n{i} c{i % q}\n" for i in range(n)), encoding="utf-8")
        return (["validate", str(graph), str(part), "--out", str(tmp_path / "report.json")],
                "error: the test family of q = 5000 communities (12502500 tests) "
                "does not fit in memory: ")
    if case == "generate":
        return (["generate", "--v", "100000000000000", "--out-graph", str(tmp_path / "g.tsv"),
                 "--out-partition", str(tmp_path / "p.tsv")], "error: Unable to allocate ")
    return (["simulate", "sim1", "--v", "1000000000", "--out", str(tmp_path / "sim1.tsv")],
            "error: Unable to allocate ")


@pytest.mark.skipif(sys.platform != "linux", reason="the address-space cap is Linux's")
@pytest.mark.parametrize("case", ["validate", "generate", "simulate"])
def test_out_of_memory_exits_2_and_writes_nothing(case, tmp_path):
    # Each run caps its own address space, so an allocation too large for the
    # cap fails at once and the host's memory is never used up.
    resource = pytest.importorskip("resource")
    argv, message = _memory_case(case, tmp_path)
    inputs = sorted(os.listdir(tmp_path))

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))

    # One BLAS thread keeps numpy's start-up address space small on any host.
    env = src_env() | {"OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "csvnet", *argv], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr
    assert sorted(os.listdir(tmp_path)) == inputs


def test_validate_empty_edge_list_exits_2(tmp_path, capsys):
    graph = tmp_path / "empty.tsv"
    graph.write_text("# no edges\n", encoding="utf-8")
    part = tmp_path / "p.tsv"
    part.write_text("", encoding="utf-8")
    assert main(["validate", str(graph), str(part)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "empty.tsv" in err and "no edges" in err


def clique_pair_file(tmp_path: Path, name: str, k: int = 7,
                     prefix: str = "n") -> str:
    lines = [f"{prefix}{i}\t{prefix}{j}"
             for i in range(k) for j in range(i + 1, k)]
    lines += [f"{prefix}{k + i}\t{prefix}{k + j}"
              for i in range(k) for j in range(i + 1, k)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_compare_identical_graphs(tmp_path, capsys):
    graph = clique_pair_file(tmp_path, "g.tsv")
    out_dir = tmp_path / "out"
    assert main(["compare", graph, graph, "--out-dir", str(out_dir)]) == 0
    for name in ("R.tsv", "S.tsv", "D.tsv", "dendrogram.nwk", "summary.json"):
        assert (out_dir / name).is_file()
    d_lines = read(out_dir / "D.tsv").splitlines()
    assert d_lines[0] == "name\tg\tg-2"
    assert d_lines[1] == "g\t0.0\t0.0"
    assert read(out_dir / "dendrogram.nwk") == "(g:0,g-2:0);\n"
    summary = json.loads(read(out_dir / "summary.json"))
    assert summary["failed_pairs"] == 0
    assert summary["pairs"][0]["r_ij"] == 1.0
    assert summary["pairs"][0]["error"] is None


def test_compare_three_graphs_unit_diagonal(tmp_path):
    paths = [clique_pair_file(tmp_path, f"g{i}.tsv", k=6 + i) for i in range(3)]
    out_dir = tmp_path / "out3"
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 0
    lines = read(out_dir / "R.tsv").splitlines()
    assert len(lines) == 4
    for i in range(3):
        row = lines[i + 1].split("\t")
        assert row[0] == f"g{i}"
        assert row[i + 1] == "1.0"


def test_compare_disjoint_labels_exits_2(tmp_path, capsys):
    g1 = clique_pair_file(tmp_path, "left.tsv", prefix="a")
    g2 = clique_pair_file(tmp_path, "right.tsv", prefix="b")
    out_dir = tmp_path / "never"
    assert main(["compare", g1, g2, "--out-dir", str(out_dir)]) == 2
    assert "no node labels" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", [["--alpha", "2"], ["--min-size", "0"]])
def test_compare_bad_level_one_error_line(tmp_path, capsys, flag):
    paths = [clique_pair_file(tmp_path, f"g{i}.tsv", k=6 + i) for i in range(3)]
    out_dir = tmp_path / "never"
    assert main(["compare", *paths, *flag, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out_dir.exists()


def test_compare_newick_unsafe_name_writes_nothing(tmp_path, capsys):
    g1 = clique_pair_file(tmp_path, "x(1).tsv")
    g2 = clique_pair_file(tmp_path, "y.tsv")
    out_dir = tmp_path / "out"
    assert main(["compare", g1, g2, "--out-dir", str(out_dir)]) == 2
    assert "x(1)" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x(1).tsv", "y.tsv"]


def test_compare_names_skip_stems_on_the_command_line(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    paths = [clique_pair_file(tmp_path, "x/a.tsv"), clique_pair_file(tmp_path, "y/a.tsv"),
             clique_pair_file(tmp_path, "a-2.tsv")]
    out_dir = tmp_path / "out"
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 0
    assert read(out_dir / "D.tsv").splitlines()[0] == "name\ta\ta-3\ta-2"


def test_compare_overwrites_existing_out_dir(tmp_path):
    paths = [clique_pair_file(tmp_path, f"h{i}.tsv", k=6 + i) for i in range(2)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "R.tsv").write_text("stale\n", encoding="utf-8")
    (out_dir / "keep.txt").write_text("mine\n", encoding="utf-8")
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 0
    assert read(out_dir / "R.tsv").startswith("name\th0\th1\n")
    assert read(out_dir / "keep.txt") == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h0.tsv", "h1.tsv", "out"]


def test_compare_failed_write_leaves_nothing(tmp_path, capsys, monkeypatch):
    paths = [clique_pair_file(tmp_path, f"h{i}.tsv", k=6 + i) for i in range(2)]
    before = sorted(p.name for p in tmp_path.iterdir())
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n", encoding="utf-8")
    assert main(["compare", *paths, "--out-dir", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert read(blocker) == "a file, not a directory\n"
    blocker.unlink()
    # The directory is made, but moving the third file into place fails:
    # the run removes the files it moved and the directory it made.
    real_replace = os.replace
    moved = []

    def failing_replace(src, dst):
        if len(moved) == 2:
            raise OSError(errno.EIO, "injected failure", str(dst))
        moved.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["compare", *paths, "--out-dir", str(tmp_path / "out")]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert len(moved) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == before


COMPARE_FILES = ("R.tsv", "S.tsv", "D.tsv", "dendrogram.nwk", "summary.json")


@pytest.mark.parametrize("fail_at", range(1, 11))
def test_compare_failed_move_restores_old_files(tmp_path, capsys, monkeypatch,
                                                fail_at):
    paths = [clique_pair_file(tmp_path, f"h{i}.tsv", k=6 + i) for i in range(2)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    old = {name: f"old {name}\n".encode() for name in COMPARE_FILES}
    for name, data in old.items():
        (out_dir / name).write_bytes(data)
    # Five old files mean five moves aside and five moves into place; the
    # fail_at-th move fails once, whichever of the two it is.
    real_replace = os.replace
    calls = []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError(errno.EIO, "injected failure", str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(COMPARE_FILES)
    for name, data in old.items():
        assert (out_dir / name).read_bytes() == data


def test_compare_directory_target_replaces_nothing(tmp_path, capsys):
    paths = [clique_pair_file(tmp_path, f"h{i}.tsv", k=6 + i) for i in range(2)]
    out_dir = tmp_path / "cmp"
    out_dir.mkdir()
    (out_dir / "R.tsv").write_text("stale\n", encoding="utf-8")
    (out_dir / "D.tsv").mkdir()
    assert main(["compare", *paths, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "partial" not in err
    assert f"'{out_dir / 'D.tsv'}'" in err
    assert read(out_dir / "R.tsv") == "stale\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["D.tsv", "R.tsv"]


def test_compare_single_graph_exits_2(tmp_path, capsys):
    graph = clique_pair_file(tmp_path, "solo.tsv")
    assert main(["compare", graph]) == 2
    assert "at least two" in capsys.readouterr().err


def test_compare_rerun_and_threads_byte_identical(tmp_path):
    paths = [clique_pair_file(tmp_path, f"h{i}.tsv", k=6 + i) for i in range(3)]
    dirs = [tmp_path / f"run{k}" for k in range(3)]
    assert main(["compare", *paths, "--seed", "4", "--threads", "1",
                 "--out-dir", str(dirs[0])]) == 0
    assert main(["compare", *paths, "--seed", "4", "--threads", "1",
                 "--out-dir", str(dirs[1])]) == 0
    assert main(["compare", *paths, "--seed", "4", "--threads", "4",
                 "--out-dir", str(dirs[2])]) == 0
    for name in ("R.tsv", "S.tsv", "D.tsv", "dendrogram.nwk", "summary.json"):
        first = read(dirs[0] / name)
        assert read(dirs[1] / name) == first
        assert read(dirs[2] / name) == first


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_threads_below_one_exits_2_and_writes_nothing(command, threads, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    if command == "compare":
        paths = [clique_pair_file(tmp_path, f"h{i}.tsv") for i in range(2)]
        argv = ["compare", *paths, "--out-dir", str(out)]
    else:
        argv = ["simulate", "sim1", "--v", "40", "--grid", "0.1",
                "--replicates", "1", "--out", str(out)]
    assert main(argv + ["--threads", threads]) == 2
    assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


def test_worker_count_defaults_to_and_is_clamped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [_workers(t) for t in (None, 1, 2, 3, 100_000)] == [2, 1, 2, 2, 2]


def test_generate_complete_graph(tmp_path, capsys):
    out_graph = tmp_path / "g.tsv"
    out_part = tmp_path / "p.tsv"
    assert main(["generate", "--v", "10", "--blocks", "2",
                 "--theta-within", "1", "--theta-between", "1",
                 "--out-graph", str(out_graph),
                 "--out-partition", str(out_part)]) == 0
    assert len(read(out_graph).splitlines()) == 45
    assert len(read(out_part).splitlines()) == 10
    assert capsys.readouterr().out == (
        f"wrote 10 nodes, 45 edges (DC-SBM sampler v2) to {out_graph}; "
        f"partition of 10 connected nodes to {out_part}\n")


def test_generate_roundtrips_through_validate(tmp_path, capsys):
    out_graph = tmp_path / "g.tsv"
    out_part = tmp_path / "p.tsv"
    assert main(["generate", "--v", "80", "--theta-between", "0.02",
                 "--seed", "3", "--out-graph", str(out_graph),
                 "--out-partition", str(out_part)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out_graph), str(out_part)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 8


def test_generate_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"v": 12, "blocks": 3, "theta_within": 1.0,
                                  "theta_between": 0.0, "seed": 1}),
                      encoding="utf-8")
    out_graph = tmp_path / "g.tsv"
    out_part = tmp_path / "p.tsv"
    assert main(["generate", "--config", str(config),
                 "--out-graph", str(out_graph),
                 "--out-partition", str(out_part)]) == 0
    assert len(read(out_graph).splitlines()) == 3 * 6


def test_generate_seed_flag_overrides_config(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 1}), encoding="utf-8")

    def graph_bytes(name, *argv):
        out_graph, out_part = tmp_path / f"{name}.tsv", tmp_path / f"{name}-p.tsv"
        assert main(["generate", "--v", "40", *argv, "--out-graph", str(out_graph),
                     "--out-partition", str(out_part)]) == 0
        return out_graph.read_bytes()

    flag_only = graph_bytes("flag", "--seed", "5")
    assert graph_bytes("both", "--seed", "5", "--config", str(config)) == flag_only
    assert graph_bytes("config", "--config", str(config)) == graph_bytes(
        "seed1", "--seed", "1")
    assert graph_bytes("none") == graph_bytes("seed0", "--seed", "0")
    assert flag_only != graph_bytes("seed1-again", "--seed", "1")


def test_generate_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vertices": 10}), encoding="utf-8")
    assert main(["generate", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_generate_rejects_malformed_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    for text, message in [("[[1]]", "config must be a JSON object"),
                          ("3", "config must be a JSON object"),
                          ('{"blocks": null}', "wrong type: ['blocks']"),
                          ('{"theta_within": [1], "seed": 1.5}',
                           "wrong type: ['seed', 'theta_within']"),
                          ('{"blocks": true}', "wrong type: ['blocks']"),
                          ('{"weight_mode": "lognormal"}',
                           "unknown weight_mode 'lognormal'")]:
        config.write_text(text, encoding="utf-8")
        assert main(["generate", "--v", "20", "--config", str(config),
                     "--out-graph", str(tmp_path / "g.tsv"),
                     "--out-partition", str(tmp_path / "p.tsv")]) == 2, text
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_generate_deterministic(tmp_path):
    outs = [(tmp_path / f"g{k}.tsv", tmp_path / f"p{k}.tsv") for k in range(2)]
    for out_graph, out_part in outs:
        assert main(["generate", "--v", "60", "--seed", "9",
                     "--out-graph", str(out_graph),
                     "--out-partition", str(out_part)]) == 0
    assert read(outs[0][0]) == read(outs[1][0])
    assert read(outs[0][1]) == read(outs[1][1])


def test_generate_theta_nan_is_a_range_error(tmp_path, capsys):
    assert main(["generate", "--theta-within", "nan",
                 "--out-graph", str(tmp_path / "g.tsv"),
                 "--out-partition", str(tmp_path / "p.tsv")]) == 2
    assert "theta entries must lie in [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--theta-within", "2"], ["--theta-between", "-0.1"],
                                   ["--theta-within", "nan"]])
def test_generate_bad_rates_exit_before_per_node_arrays(flags, tmp_path, capsys):
    # The rates are checked where theta is built, so generate stops before
    # it builds a per-node array: 0.05-0.24 MiB allocated at v = 10^6,
    # against 15.3 MiB when only the sampler's configuration checked them.
    outs = ["--out-graph", str(tmp_path / "g.tsv"), "--out-partition", str(tmp_path / "p.tsv")]
    tracemalloc.start()
    try:
        code = main(["generate", "--v", "1000000", *flags, *outs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == "error: theta entries must lie in [0, 1]\n"
    assert peak < 2**20, peak / 2**20
    assert list(tmp_path.iterdir()) == []


def test_generate_all_zero_rates_exit_before_per_node_arrays(tmp_path, capsys):
    # Every rate zero gives no edges at any v, so generate stops before it
    # builds a per-node array: 0.24 MiB allocated at v = 10^6, against
    # 140 MiB when the check came only after sampling.
    outs = ["--out-graph", str(tmp_path / "g.tsv"), "--out-partition", str(tmp_path / "p.tsv")]
    tracemalloc.start()
    try:
        code = main(["generate", "--v", "1000000", "--theta-within", "0",
                     "--theta-between", "0", *outs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == "error: generated graph has no edges; raise theta or v\n"
    assert peak < 2**20, peak / 2**20
    # Rates too small to draw an edge still meet the check after sampling.
    assert main(["generate", "--v", "20", "--theta-within", "1e-12",
                 "--theta-between", "0", *outs]) == 2
    assert capsys.readouterr().err == "error: generated graph has no edges; raise theta or v\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_failed_partition_write_leaves_no_graph(tmp_path, capsys):
    assert main(["generate", "--v", "40",
                 "--out-graph", str(tmp_path / "x.tsv"),
                 "--out-partition", str(tmp_path / "nodir" / "y.tsv")]) == 2
    assert "nodir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_directory_partition_target_replaces_nothing(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text("old\n", encoding="utf-8")
    part_dir = tmp_path / "part_dir"
    part_dir.mkdir()
    assert main(["generate", "--v", "40", "--out-graph", str(graph),
                 "--out-partition", str(part_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "partial" not in err
    assert f"'{part_dir}'" in err
    assert read(graph) == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "part_dir"]


@pytest.mark.parametrize("spelling", ["g.tsv", "./g.tsv"])
def test_generate_rejects_one_file_for_both_outputs(spelling, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("g.tsv").write_text("old\n", encoding="utf-8")
    assert main(["generate", "--v", "40", "--blocks", "2", "--out-graph", "g.tsv",
                 "--out-partition", spelling]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert read(tmp_path / "g.tsv") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]


def test_symlink_target_is_replaced(triangles, tmp_path, capsys):
    graph, _ = triangles
    target = tmp_path / "target_dir"
    target.mkdir()
    link = tmp_path / "clusters.tsv"
    link.symlink_to(target, target_is_directory=True)
    assert main(["cluster", graph, "--out", str(link)]) == 0
    assert not link.is_symlink() and len(read(link).splitlines()) == 6
    assert list(target.iterdir()) == []


def test_successful_runs_leave_no_partial_files(triangles, tmp_path, capsys):
    graph, partition = triangles
    out = tmp_path / "out"
    out.mkdir()
    runs = [
        ["generate", "--v", "40", "--out-graph", str(out / "g.tsv"),
         "--out-partition", str(out / "p.tsv")],
        ["validate", graph, partition, "--out", str(out / "report.json")],
        ["cluster", graph, "--out", str(out / "clusters.tsv")],
        ["simulate", "sim1", "--v", "40", "--grid", "0", "--replicates", "1",
         "--out", str(out / "sim1.tsv")],
    ]
    for argv in runs:
        assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "clusters.tsv", "g.tsv", "p.tsv", "report.json", "sim1.tsv"]


def test_cluster_two_triangles(triangles, capsys):
    graph, _ = triangles
    assert main(["cluster", graph]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    comm = {line.split("\t")[0]: line.split("\t")[1] for line in lines}
    assert comm["a"] == comm["b"] == comm["c"]
    assert comm["d"] == comm["e"] == comm["f"]
    assert comm["a"] != comm["d"]


def test_cluster_fast_greedy_to_file(triangles, tmp_path, capsys):
    graph, _ = triangles
    out = tmp_path / "clusters.tsv"
    assert main(["cluster", graph, "--algorithm", "fast_greedy",
                 "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert len(lines) == 6
    assert len({line.split("\t")[1] for line in lines}) == 2


def test_simulate_sim1_table(tmp_path):
    out = tmp_path / "rows.tsv"
    args = ["simulate", "sim1", "--v", "40", "--grid", "0", "0.1",
            "--replicates", "2", "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    lines = read(out).splitlines()
    assert lines[0] == "# csvnet simulation schema_version=1"
    assert len(lines) == 2 + 4
    rerun = tmp_path / "rows2.tsv"
    assert main(args[:-1] + [str(rerun), "--threads", "3"]) == 0
    assert read(rerun) == read(out)


def test_simulate_sim2_and_sim3_small(tmp_path):
    out2 = tmp_path / "sim2.tsv"
    assert main(["simulate", "sim2", "--v", "40", "--levels", "0.01",
                 "--degradation-grid", "0", "1", "--replicates", "2",
                 "--out", str(out2)]) == 0
    assert len(read(out2).splitlines()) == 2 + 4
    out3 = tmp_path / "sim3.tsv"
    assert main(["simulate", "sim3", "--v", "40", "--levels", "0.01",
                 "--algorithms", "louvain", "--replicates", "2",
                 "--out", str(out3)]) == 0
    assert len(read(out3).splitlines()) == 2 + 2


def test_simulate_flag_validation(tmp_path, capsys):
    assert main(["simulate", "sim2", "--v", "40", "80"]) == 2
    assert "single --v" in capsys.readouterr().err
    assert main(["simulate", "sim3", "--v", "40",
                 "--algorithms", "walktrap"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["sim1", "--levels", "0.5", "--algorithms", "walktrap",
      "--degradation-grid", "7"], "--levels"),
    (["sim2", "--grid", "0.1"], "--grid"),
    (["sim3", "--degradation-grid", "0.5"], "--degradation-grid"),
])
def test_simulate_rejects_flags_of_other_studies(argv, flag, tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert main(["simulate", *argv, "--v", "40", "--replicates", "1",
                 "--threads", "2", "--out", str(out)]) == 2
    assert f"error: {argv[0]} does not take {flag}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sim3", "--v", "40", "--levels", "0.1", "--algorithms", "louvain", "louvain"],
    ["sim1", "--v", "40", "40", "--grid", "0.1", "0.1"],
    ["sim1", "--v", "40", "40", "--grid", "0.1"],
    ["sim2", "--v", "40", "--levels", "0.1", "--degradation-grid", "0", "0"],
])
def test_simulate_rejects_repeated_values(argv, tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert main(["simulate", *argv, "--replicates", "1", "--out", str(out)]) == 2
    assert "repeated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sim", ["sim1", "sim2", "sim3"])
def test_simulate_uses_the_study_defaults(sim, tmp_path):
    out = tmp_path / "rows.tsv"
    assert main(["simulate", sim, "--v", "40", "--replicates", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    if sim == "sim1":
        rows = run_sim1(v_list=(40,), replicates=1, seed=3)
    else:
        rows = {"sim2": run_sim2, "sim3": run_sim3}[sim](v=40, replicates=1, seed=3)
    assert read(out) == rows_to_tsv(rows)


@pytest.mark.parametrize("argv", [["sim1", "--grid", "nan"],
                                  ["sim3", "--levels", "nan",
                                   "--algorithms", "louvain"]])
def test_simulate_nan_rate_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert main(["simulate", *argv, "--v", "40", "--replicates", "1",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_alpha_exits_2(tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert main(["simulate", "sim1", "--alpha", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: alpha out of range (0, 1)\n"
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_2():
    assert main(["bogus"]) == 2
    assert main(["validate"]) == 2
    assert main(["simulate", "sim1", "--replicates", "nope"]) == 2
