"""CSV indices: aggregate an enrichment test family into validation scores.

UCSV is the rejected fraction of the family; WCSV weights each rejection by
(alpha - adj_p) / alpha. UCV and WCV restrict the count to the q tests that
involve one community. Degenerate tests stay in every denominator but can
never reject, so partitions with dead communities score lower.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .enrichment import EnrichmentMatrix, enrichment_matrix
from .graph import Graph, Partition, fmt_float

SCHEMA_VERSION = 2  # 2: mid-p normalizers and tails are running sums


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha out of range (0, 1)")
    return alpha


def _weights(matrix: EnrichmentMatrix, alpha: float) -> np.ndarray:
    """(alpha - adj_p) / alpha for each rejection, 0.0 for every other test."""
    return np.where(matrix.rejected(alpha), (alpha - matrix.adj_p) / alpha, 0.0)


def ucsv(matrix: EnrichmentMatrix, alpha: float) -> float:
    """Fraction of the test family rejected at level ``alpha``."""
    alpha = _check_alpha(alpha)
    return int(matrix.rejected(alpha).sum()) / matrix.r.size


def wcsv(matrix: EnrichmentMatrix, alpha: float) -> float:
    """Rejection fraction weighted by (alpha - adj_p) / alpha per test."""
    alpha = _check_alpha(alpha)
    # A sequential sum in family order (cumsum, not the pairwise sum());
    # the zeros of the other tests add exactly nothing.
    return float(np.cumsum(_weights(matrix, alpha))[-1]) / matrix.r.size


def _community_sums(matrix: EnrichmentMatrix, alpha: float) -> tuple[list, list]:
    """Rejection counts and weight sums over the q tests touching each
    community: its within test plus one between test per other community
    (r -> s orientation when directed), added in family order."""
    r = matrix.r
    if matrix.directed:
        comm, test = r, np.arange(r.size)
    else:
        # Each test once per community it touches, interleaved so that every
        # community still meets its tests in family order.
        pairs = np.stack([r, np.where(r == matrix.s, -1, matrix.s)], axis=1).ravel()
        touch = pairs >= 0
        comm, test = pairs[touch], np.repeat(np.arange(r.size), 2)[touch]
    hits = np.bincount(comm[matrix.rejected(alpha)[test]], minlength=matrix.q)
    totals = np.bincount(comm, weights=_weights(matrix, alpha)[test], minlength=matrix.q)
    return hits.tolist(), totals.tolist()


def ucv(matrix: EnrichmentMatrix, r: int, alpha: float) -> float:
    """Single-community validation: rejected fraction of the q tests on r."""
    alpha = _check_alpha(alpha)
    matrix.check_community(r)
    return _community_sums(matrix, alpha)[0][r] / matrix.q


def wcv(matrix: EnrichmentMatrix, r: int, alpha: float) -> float:
    """Weighted single-community validation index."""
    alpha = _check_alpha(alpha)
    matrix.check_community(r)
    return _community_sums(matrix, alpha)[1][r] / matrix.q


@dataclass(frozen=True)
class CommunityScore:
    community: int
    size: int
    ucv: float
    wcv: float


@dataclass(eq=False)
class CsvReport:
    """Full validation report for one (graph, partition) pair at one alpha."""

    alpha: float
    ucsv: float
    wcsv: float
    per_community: tuple[CommunityScore, ...]
    matrix: EnrichmentMatrix


def csv_report(graph: Graph, partition: Partition, alpha: float = 0.05) -> CsvReport:
    """Run the whole test family and compute every index."""
    alpha = _check_alpha(alpha)
    matrix = enrichment_matrix(graph, partition)
    hits, totals = _community_sums(matrix, alpha)
    q = partition.q
    per_community = tuple(
        CommunityScore(r, size, hit / q, total / q)
        for r, (size, hit, total) in enumerate(zip(partition.sizes().tolist(), hits, totals)))
    return CsvReport(alpha, ucsv(matrix, alpha), wcsv(matrix, alpha),
                     per_community, matrix)


def report_to_json(report: CsvReport) -> str:
    """Serialize with a fixed field order, trailing newline, LF only.

    The text equals ``json.dumps(payload, indent=2) + "\n"``. The test list
    is written directly, because ``json`` falls back to its pure-Python
    encoder whenever ``indent`` is set.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": report.alpha,
        "directed": report.matrix.directed,
        "q": report.matrix.q,
        "ucsv": report.ucsv,
        "wcsv": report.wcsv,
        "communities": [
            {"id": c.community, "size": c.size, "ucv": c.ucv, "wcv": c.wcv}
            for c in report.per_community
        ],
        "tests": [],
    }
    head = json.dumps(payload, indent=2)
    f = fmt_float
    # One join over the head, the tests and the tail, so the text is built
    # once. Test directions are the enrichment module's plain-ASCII
    # constants, so they need no escaping, and every test float is finite
    # (EnrichmentMatrix checks), so its repr is what json writes.
    tests = (
        f'{sep}    {{\n      "r": {r},\n      "s": {s},\n'
        f'      "direction": "{direction}",\n      "n_obs": {n_obs},\n'
        f'      "mu0": {f(mu0)},\n      "raw_p": {f(raw_p)},\n'
        f'      "adj_p": {f(adj_p)},\n'
        f'      "degenerate": {"true" if degenerate else "false"}\n    }}'
        for sep, (r, s, direction, n_obs, mu0, raw_p, adj_p, degenerate)
        in zip(chain(["[\n"], repeat(",\n")), report.matrix.records()))
    return "".join(chain([head[:-len("[]\n}")]], tests, ["\n  ]\n}\n"]))


def report_to_tsv(report: CsvReport) -> str:
    """Flat TSV: self-describing record rows behind a schema comment."""
    f = fmt_float
    lines = [f"# csvnet report schema_version={SCHEMA_VERSION}",
             f"index\talpha\t{f(report.alpha)}",
             f"index\tucsv\t{f(report.ucsv)}",
             f"index\twcsv\t{f(report.wcsv)}"]
    for c in report.per_community:
        lines.append(f"community\t{c.community}\t{c.size}\t{f(c.ucv)}\t{f(c.wcv)}")
    for r, s, direction, n_obs, mu0, raw_p, adj_p, degenerate in report.matrix.records():
        lines.append("\t".join([
            "test", str(r), str(s), direction, str(n_obs),
            f(mu0), f(raw_p), f(adj_p), str(int(degenerate)),
        ]))
    return "\n".join(lines) + "\n"
