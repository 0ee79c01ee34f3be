"""Tests for UCSV/WCSV/UCV/WCV aggregation and report serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from csvnet.enrichment import EnrichmentMatrix, enrichment_matrix
from csvnet.graph import Graph, Partition
from csvnet.indices import (
    csv_report,
    report_to_json,
    report_to_tsv,
    ucsv,
    ucv,
    wcsv,
    wcv,
)


def synthetic_matrix(q: int, adj: dict[tuple[int, int], float],
                     directed: bool = False,
                     degenerate: set[tuple[int, int]] = frozenset()) -> EnrichmentMatrix:
    """Build a matrix whose adjusted p-values are dictated directly."""
    pairs = ([(r, r) for r in range(q)]
             + ([(r, s) for r in range(q) for s in range(q) if r != s] if directed
                else [(r, s) for r in range(q) for s in range(r + 1, q)]))
    adj_p = [adj[pair] for pair in pairs]
    deg = [pair in degenerate for pair in pairs]
    raw_p = [min(a, 0.5 if d else a) for a, d in zip(adj_p, deg)]
    return EnrichmentMatrix(q, directed, r=[r for r, _ in pairs], s=[s for _, s in pairs],
                            n_obs=[0] * len(pairs), mu0=[0.0] * len(pairs),
                            raw_p=raw_p, adj_p=adj_p, degenerate=deg)


def two_triangles() -> tuple[Graph, Partition]:
    g = Graph(tuple("abcdef"),
              [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return g, Partition(np.array([0, 0, 0, 1, 1, 1]), 2)


def random_matrix(rng: np.random.Generator) -> EnrichmentMatrix:
    n = int(rng.integers(8, 16))
    pairs = set()
    while len(pairs) < 2 * n:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    g = Graph(tuple(f"n{i}" for i in range(n)), sorted(pairs))
    q = int(rng.integers(2, 5))
    # Random assignments may leave a community empty, which is fine here.
    return enrichment_matrix(g, Partition(rng.integers(0, q, size=n), q))


# --- whole-family indices ----------------------------------------------------


def test_ucsv_all_or_none():
    all_reject = synthetic_matrix(3, {k: 0.0 for k in
                                      [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]})
    assert ucsv(all_reject, 0.05) == 1.0
    none = synthetic_matrix(3, {k: 0.9 for k in
                                [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]})
    assert ucsv(none, 0.05) == 0.0


def test_ucsv_five_of_six():
    adj = {(0, 0): 0.0, (1, 1): 0.0, (2, 2): 0.0,
           (0, 1): 0.01, (0, 2): 0.02, (1, 2): 0.9}
    assert ucsv(synthetic_matrix(3, adj), 0.05) == pytest.approx(5 / 6)


def test_wcsv_single_test():
    m = synthetic_matrix(1, {(0, 0): 0.01})
    assert wcsv(m, 0.05) == pytest.approx(0.8, abs=1e-14)


def test_wcsv_boundary_and_zero():
    m = synthetic_matrix(1, {(0, 0): 0.05})
    assert ucsv(m, 0.05) == 1.0
    assert wcsv(m, 0.05) == 0.0
    zeros = synthetic_matrix(2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): 0.0})
    assert wcsv(zeros, 0.05) == ucsv(zeros, 0.05) == 1.0


def test_degenerate_never_rejects():
    # alpha above the flagged raw value: only the live test may reject
    m = synthetic_matrix(2, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.5},
                         degenerate={(1, 1)})
    assert ucsv(m, 0.6) == pytest.approx(2 / 3)


def test_ucv_hand_cases():
    adj = {(0, 0): 0.0, (1, 1): 0.9, (2, 2): 0.9, (3, 3): 0.9,
           (0, 1): 0.9, (0, 2): 0.9, (0, 3): 0.9, (1, 2): 0.9,
           (1, 3): 0.9, (2, 3): 0.9}
    m = synthetic_matrix(4, adj)
    assert ucv(m, 0, 0.05) == pytest.approx(1 / 4)
    assert ucv(m, 1, 0.05) == 0.0
    all_reject = synthetic_matrix(2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): 0.0})
    assert ucv(all_reject, 0, 0.05) == 1.0


def test_wcv_hand_case():
    m = synthetic_matrix(2, {(0, 0): 0.025, (1, 1): 0.9, (0, 1): 0.05})
    assert wcv(m, 0, 0.05) == pytest.approx(0.25, abs=1e-14)
    assert ucv(m, 0, 0.05) == 1.0


def test_directed_ucv_uses_outgoing_orientation():
    adj = {(0, 0): 0.0, (1, 1): 0.9, (0, 1): 0.0, (1, 0): 0.9}
    m = synthetic_matrix(2, adj, directed=True)
    assert ucv(m, 0, 0.05) == 1.0
    assert ucv(m, 1, 0.05) == 0.0


def test_index_bounds_and_alpha_validation():
    m = synthetic_matrix(1, {(0, 0): 0.01})
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="alpha"):
            ucsv(m, bad)
    with pytest.raises(ValueError):
        ucv(m, 5, 0.05)
    # An empty family has no fraction to take.
    with pytest.raises(ValueError, match="at least one community"):
        csv_report(Graph((), np.empty((0, 2))), Partition(np.array([], dtype=int), 0))


# --- invariants on real matrices ----------------------------------------------


def test_wcsv_le_ucsv_and_averaging_consistency():
    rng = np.random.default_rng(21)
    for _ in range(15):
        m = random_matrix(rng)
        alpha = float(rng.uniform(0.01, 0.6))
        u, w = ucsv(m, alpha), wcsv(m, alpha)
        assert 0.0 <= w <= u <= 1.0
        per = [ucv(m, r, alpha) for r in range(m.q)]
        for r in range(m.q):
            assert 0.0 <= wcv(m, r, alpha) <= per[r] <= 1.0
        within_hits = sum(res.rejected(alpha) for res in m.results if res.r == res.s)
        between_hits = sum(res.rejected(alpha) for res in m.results if res.r != res.s)
        assert sum(per) * m.q == pytest.approx(within_hits + 2 * between_hits)


def test_indices_equal_per_test_sums_bitwise():
    # The column reductions must add each community's tests in the order the
    # per-test definition visits them: its within test, then s = 0..q-1.
    rng = np.random.default_rng(23)
    for directed in (False, True):
        for q in (3, 7, 12):
            pairs = [(r, s) for r in range(q) for s in range(q)
                     if directed or r <= s]
            adj = {pair: float(rng.uniform(0.0, 0.08)) for pair in pairs}
            m = synthetic_matrix(q, adj, directed=directed,
                                 degenerate={pairs[-1]})
            alpha = 0.05
            family = 0.0
            for res in m.results:
                if res.rejected(alpha):
                    family += (alpha - res.adj_p) / alpha
            assert wcsv(m, alpha) == family / len(m.results)
            for r in range(q):
                hits, total = 0, 0.0
                for s in [r] + [s for s in range(q) if s != r]:
                    res = m.result(r, s)
                    if res.rejected(alpha):
                        hits += 1
                        total += (alpha - res.adj_p) / alpha
                assert ucv(m, r, alpha) == hits / q
                assert wcv(m, r, alpha) == total / q


def test_ucsv_monotone_in_alpha():
    rng = np.random.default_rng(22)
    m = random_matrix(rng)
    grid = np.linspace(0.01, 0.99, 25)
    values = [ucsv(m, a) for a in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- reports -------------------------------------------------------------------


def test_csv_report_two_triangles():
    g, p = two_triangles()
    rep = csv_report(g, p, alpha=0.05)
    assert rep.ucsv == 1.0
    assert 0.0 <= rep.wcsv <= rep.ucsv
    assert [c.size for c in rep.per_community] == [3, 3]
    assert all(c.ucv == 1.0 for c in rep.per_community)


def test_csv_report_subnormal_alpha_divides_only_rejections():
    # Dividing every test by a subnormal alpha overflows, which the suite's
    # error::RuntimeWarning filter turns into an error.
    g, p = two_triangles()
    rep = csv_report(g, p, alpha=5e-324)
    assert rep.ucsv == rep.wcsv == 0.0
    assert all(c.ucv == c.wcv == 0.0 for c in rep.per_community)


def test_csv_report_single_community():
    g, _ = two_triangles()
    rep = csv_report(g, Partition(np.zeros(6, dtype=int), 1))
    assert len(rep.matrix.results) == 1


def test_report_serialization_round_trip():
    g, p = two_triangles()
    rep = csv_report(g, p)
    text = report_to_json(rep)
    assert text == report_to_json(rep)
    payload = json.loads(text)
    assert list(payload) == ["schema_version", "alpha", "directed", "q",
                             "ucsv", "wcsv", "communities", "tests"]
    assert payload["schema_version"] == 2
    assert payload["ucsv"] == 1.0
    assert len(payload["tests"]) == 3

    tsv = report_to_tsv(rep)
    assert tsv == report_to_tsv(rep)
    lines = tsv.splitlines()
    assert lines[0].startswith("# csvnet report schema_version=2")
    kinds = [line.split("\t")[0] for line in lines[1:]]
    assert kinds == ["index"] * 3 + ["community"] * 2 + ["test"] * 3


def _json_dumps_report(report) -> str:
    """The report as ``json.dumps`` lays it out, for the direct writer."""
    payload = {
        "schema_version": 2,
        "alpha": report.alpha,
        "directed": report.matrix.directed,
        "q": report.matrix.q,
        "ucsv": report.ucsv,
        "wcsv": report.wcsv,
        "communities": [
            {"id": c.community, "size": c.size, "ucv": c.ucv, "wcv": c.wcv}
            for c in report.per_community
        ],
        "tests": [
            {"r": t.r, "s": t.s, "direction": t.direction, "n_obs": t.n_obs,
             "mu0": t.mu0, "raw_p": t.raw_p, "adj_p": t.adj_p,
             "degenerate": t.degenerate}
            for t in report.matrix.results
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _json_cases():
    g, p = two_triangles()
    arrows = Graph(tuple("abcdef"), g.edges, directed=True)
    # Community 2 is empty, as degrade_partition may leave one.
    return {
        "directed": csv_report(arrows, p),
        "empty community": csv_report(g, Partition(p.assignment, 3)),
        "q=1": csv_report(g, Partition(np.zeros(6, dtype=int), 1)),
    }


@pytest.mark.parametrize("case", ["directed", "empty community", "q=1"])
def test_report_to_json_equals_json_dumps(case):
    report = _json_cases()[case]
    assert report_to_json(report) == _json_dumps_report(report)
