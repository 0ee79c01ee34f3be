"""Simulation harness tests at miniature scale."""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from csvnet import compare, simharness
from csvnet.compare import compare_all
from csvnet.graph import Graph, GraphFormatError, Partition
from csvnet.indices import csv_report
from csvnet.simharness import (
    SimResultRow,
    rows_to_tsv,
    run_sim1,
    run_sim2,
    run_sim3,
)


def median_ucsv(rows, **match) -> float:
    picked = [r.ucsv for r in rows
              if all(getattr(r, k) == v for k, v in match.items())]
    assert picked, f"no rows match {match}"
    return float(np.median(picked))


def test_sim1_row_count_and_schema():
    rows = run_sim1(v_list=(40,), theta_between_grid=(0.0, 0.1),
                    replicates=3, seed=1)
    assert len(rows) == 6
    assert all(r.sim_id == "sim1" for r in rows)
    assert all(r.algorithm == "planted" and r.degradation_q == 0.0 for r in rows)
    assert all(0.0 <= r.wcsv <= r.ucsv <= 1.0 for r in rows)
    assert rows == sorted(rows, key=SimResultRow.sort_key)


def test_sim1_deterministic_on_rerun():
    kwargs = dict(v_list=(40,), theta_between_grid=(0.0, 0.3),
                  replicates=4, seed=7)
    first = run_sim1(**kwargs)
    again = run_sim1(**kwargs)
    assert first == again
    assert rows_to_tsv(first) == rows_to_tsv(again)


def test_sim1_strong_structure_scores_high():
    rows = run_sim1(v_list=(200,), theta_between_grid=(0.0,),
                    replicates=5, seed=3)
    assert median_ucsv(rows) == 1.0


def test_sim1_no_structure_scores_low():
    rows = run_sim1(v_list=(200,), theta_between_grid=(0.3,),
                    replicates=5, seed=4)
    assert median_ucsv(rows) <= 0.3


def test_sim2_row_count_and_fields():
    rows = run_sim2(theta_between_levels=(0.01, 0.1),
                    degradation_grid=(0.0, 0.5, 1.0),
                    replicates=2, seed=5, v=40)
    assert len(rows) == 12
    assert {r.degradation_q for r in rows} == {0.0, 0.5, 1.0}
    assert all(r.sim_id == "sim2" for r in rows)


def test_sim2_degradation_separates_scores():
    rows = run_sim2(theta_between_levels=(0.01,), degradation_grid=(0.0, 1.0),
                    replicates=5, seed=6, v=160)
    assert median_ucsv(rows, degradation_q=0.0) == 1.0
    assert median_ucsv(rows, degradation_q=1.0) <= 0.3
    q_low = np.median([r.modularity for r in rows if r.degradation_q == 0.0])
    q_high = np.median([r.modularity for r in rows if r.degradation_q == 1.0])
    assert q_low > q_high


def test_sim3_rows_share_graph_seed_per_replicate():
    rows = run_sim3(theta_between_levels=(0.01,), replicates=2,
                    algorithms=("louvain", "fast_greedy"), seed=8, v=80)
    assert len(rows) == 4
    by_rep: dict[int, set[int]] = {}
    for row in rows:
        by_rep.setdefault(row.replicate, set()).add(row.seed)
    assert all(len(seeds) == 1 for seeds in by_rep.values())
    assert {r.algorithm for r in rows} == {"louvain", "fast_greedy"}


def test_sim3_louvain_recovers_clear_structure():
    rows = run_sim3(theta_between_levels=(0.01,), replicates=3,
                    algorithms=("louvain",), seed=9, v=160)
    assert median_ucsv(rows, algorithm="louvain") == 1.0


def test_sim3_external_partition(tmp_path):
    v, blocks = 40, 8
    path = tmp_path / "parts.tsv"
    lines = [f"n{i}\tc{i * blocks // v}" for i in range(v)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = run_sim3(theta_between_levels=(0.01,), replicates=2,
                    algorithms=(f"external:{path}",), seed=10, v=v)
    assert len(rows) == 2
    assert all(r.algorithm.startswith("external:") for r in rows)
    again = run_sim3(theta_between_levels=(0.01,), replicates=2,
                     algorithms=(f"external:{path}",), seed=10, v=v)
    assert rows == again


def counted(monkeypatch, *names) -> Counter:
    """Calls of each named ``simharness`` binding, counted as they happen."""
    calls = Counter()
    for name in names:
        def wrapper(*args, _name=name, _func=getattr(simharness, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(simharness, name, wrapper)
    return calls


def test_sim3_loads_each_external_partition_once(tmp_path, monkeypatch):
    v = 40
    algorithms = []
    for k, blocks in enumerate((8, 4)):
        path = tmp_path / f"parts{k}.tsv"
        path.write_text("".join(f"n{i}\tc{i * blocks // v}\n" for i in range(v)),
                        encoding="utf-8")
        algorithms.append(f"external:{path}")
    calls = counted(monkeypatch, "load_partition", "sample_graph")
    rows = run_sim3(theta_between_levels=(0.01, 0.1, 0.2), replicates=5,
                    algorithms=algorithms, seed=4, v=v)
    assert len(rows) == 30
    assert calls == {"load_partition": 2, "sample_graph": 15}


def test_sim3_external_partition_missing_file(tmp_path, monkeypatch):
    calls = counted(monkeypatch, "sample_graph")
    with pytest.raises((GraphFormatError, OSError)):
        run_sim3(theta_between_levels=(0.01,), replicates=1,
                 algorithms=("louvain", f"external:{tmp_path}/absent.tsv"),
                 seed=1, v=40)
    assert calls == {}  # raised before any graph was drawn


@pytest.mark.parametrize("run, kwargs", [
    (run_sim1, dict(v_list=(8,), theta_between_grid=(0.0,))),
    # Undegraded only: at q_frac 1.0 two nodes can share a block and link.
    (run_sim2, dict(v=8, theta_between_levels=(0.0,), degradation_grid=(0.0,))),
    (run_sim3, dict(v=8, theta_between_levels=(0.0,))),
])
def test_edgeless_draws_score_zero_and_run_no_detector(run, kwargs, monkeypatch):
    # One node per planted block and no between links: every draw is edgeless.
    calls = counted(monkeypatch, "louvain", "fast_greedy")
    rows = run(**kwargs, replicates=2, seed=5)
    assert len(rows) == (4 if run is run_sim3 else 2)
    assert {(r.modularity, r.ucsv, r.wcsv) for r in rows} == {(0.0, 0.0, 0.0)}
    assert (calls["louvain"], calls["fast_greedy"]) == (0, 0)


@pytest.mark.parametrize("alpha", [2.0, 0.0, float("nan")])
@pytest.mark.parametrize("run, kwargs", [
    (run_sim1, dict(v_list=(40,))),
    (run_sim2, dict(v=40)),
    (run_sim3, dict(v=40)),
])
def test_bad_alpha_raises_before_any_draw(run, kwargs, alpha, monkeypatch):
    calls = counted(monkeypatch, "sample_graph")
    with pytest.raises(ValueError, match="alpha"):
        run(**kwargs, replicates=1, alpha=alpha)
    assert calls == {}


def test_degenerate_tests_pass_without_warnings(monkeypatch):
    """Degenerate tests are flagged in the family, not warned about, so the
    family, the study loop and compare_all run clean with every warning an
    error."""
    degenerate = Counter()

    def counting(module):
        report = module.csv_report

        def wrapper(*args, **kwargs):
            out = report(*args, **kwargs)
            degenerate[module.__name__] += int(out.matrix.degenerate.sum())
            return out
        monkeypatch.setattr(module, "csv_report", wrapper)

    counting(simharness)
    counting(compare)
    # One 6-clique of a two-clique graph has no edges in the other graph.
    labels = tuple(f"n{i}" for i in range(12))
    cliques = [(i, j) for b in (0, 6) for i in range(b, b + 6) for j in range(i + 1, b + 6)]
    both = Graph(labels, cliques + [(0, 6)])
    one = Graph(labels, cliques[:15])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = csv_report(one, Partition(np.repeat([0, 1], 6), 2))
        assert alone.matrix.degenerate.any()
        # Two nodes per planted block and no between links: whole blocks go
        # without edges.
        run_sim2(theta_between_levels=(0.0,), degradation_grid=(0.0, 1.0),
                 replicates=3, seed=2, v=16)
        compare_all([("both", both), ("one", one)], min_size=2)
    assert degenerate["csvnet.simharness"] > 0
    assert degenerate["csvnet.compare"] > 0


def test_input_validation():
    nan = float("nan")  # fails every comparison, so it must fail the range check
    with pytest.raises(ValueError):
        run_sim1(theta_between_grid=(1.5,), replicates=1)
    with pytest.raises(ValueError):
        run_sim1(theta_between_grid=(nan,), replicates=1)
    with pytest.raises(ValueError):
        run_sim2(theta_between_levels=(nan,), replicates=1)
    with pytest.raises(ValueError):
        run_sim2(degradation_grid=(0.0, nan), replicates=1)
    with pytest.raises(ValueError):
        run_sim3(theta_between_levels=(nan,), replicates=1, v=40)
    with pytest.raises(ValueError):
        run_sim1(theta_between_grid=(0.1,), replicates=0)
    with pytest.raises(ValueError):
        run_sim2(degradation_grid=(), replicates=1)
    with pytest.raises(ValueError):
        run_sim3(algorithms=("walktrap",), replicates=1, v=40)
    with pytest.raises(ValueError):
        run_sim3(algorithms=(), replicates=1, v=40)
    # Repeated entries would give rows that share every key column.
    with pytest.raises(ValueError, match="repeated"):
        run_sim1(v_list=(40, 40), theta_between_grid=(0.1,), replicates=1)
    with pytest.raises(ValueError, match="repeated"):
        run_sim1(v_list=(40,), theta_between_grid=(0.1, 0.1), replicates=1)
    with pytest.raises(ValueError, match="repeated"):
        run_sim2(theta_between_levels=(0.1,), degradation_grid=(0.5, 0.5),
                 replicates=1, v=40)
    with pytest.raises(ValueError, match="repeated"):
        run_sim3(theta_between_levels=(0.1, 0.1), replicates=1, v=40)
    with pytest.raises(ValueError, match="repeated"):
        run_sim3(theta_between_levels=(0.1,), algorithms=("louvain", "louvain"),
                 replicates=1, v=40)


def test_rows_to_tsv_layout():
    rows = run_sim1(v_list=(40,), theta_between_grid=(0.0,),
                    replicates=1, seed=2)
    text = rows_to_tsv(rows)
    lines = text.splitlines()
    assert lines[0] == "# csvnet simulation schema_version=1"
    assert lines[1].split("\t")[:4] == ["sim_id", "replicate", "v",
                                        "theta_between"]
    cells = lines[2].split("\t")
    assert cells[0] == "sim1" and cells[3] == "0.0"
    assert text.endswith("\n") and len(lines) == 3
