"""Simulation harness tests at miniature scale."""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.graph import GraphFormatError
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


def test_sim3_external_partition_missing_file(tmp_path):
    with pytest.raises((GraphFormatError, OSError)):
        run_sim3(theta_between_levels=(0.01,), replicates=1,
                 algorithms=(f"external:{tmp_path}/absent.tsv",), seed=1, v=40)


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
