"""Independent oracles shared across test modules.

The exact ones are computed with Fractions and math.comb, never with the
package's own floating-point code paths. ``full_support_pmf`` and
``full_support_mid_p`` are the float64 reference for bit-identity: the
whole-support pmf construction the package used before its pmfs stopped at
float64 underflow, with every sum a running (left-to-right) sum over the
whole support. ``pairwise_sample_graph`` is the blockmodel sampler that
builds every node pair's probability and draws one uniform per pair (the
package's sampler version 1); the package's geometric-skip sampler must
match its per-pair edge frequencies over many seeds and its warning word for
word. ``line_loop_load_graph`` is the per-line edge-list parser with a
Python set for deduplication; the package's record reader must give the same
labels, edges, warnings and errors. ``line_loop_load_partition`` is the
per-line partition parser with a label -> community dict; the package's
array-based loader must give the same assignment or the same error text.
Both split the file's bytes at universal line ends and decode one line at a
time, so the first bad line wins whether it is malformed or not UTF-8.
``argsort_graph_edges`` is the ``Graph``
constructor's edge canonicalisation by stable argsort and gathers; the
in-place key sort must give the same edge array or the same ValueError.
``definitional_pair`` is the relative-index comparison of two graphs
written from its definitions with label sets and Python counters, for
partitions the caller supplies; ``compare_all`` must give the same R entries.
``recursive_from_newick`` is the
recursive-descent Newick parser that builds a nested-tuple parse tree and
walks it; the package's one-pass scanner must give the same dendrogram, or a
ValueError wherever it raises one (past Python's recursion limit it reports
"too deep" instead).
"""

from __future__ import annotations

import codecs
import warnings
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from csvnet._rng import derive_rng
from csvnet.clustering import Dendrogram
from csvnet.graph import Graph, GraphFormatError, Partition


def exact_pmf(x: int, N: int, K: int, n: int) -> Fraction:
    if x < 0 or x > n or x > K or n - x > N - K:
        return Fraction(0)
    return Fraction(comb(K, x) * comb(N - K, n - x), comb(N, n))


def exact_upper_mid_p(x: int, N: int, K: int, n: int) -> Fraction:
    hi = min(n, K)
    tail = sum((exact_pmf(t, N, K, n) for t in range(x + 1, hi + 1)), Fraction(0))
    if x < max(0, n + K - N):
        tail = Fraction(1)
    return Fraction(1, 2) * exact_pmf(x, N, K, n) + tail


def exact_lower_mid_p(x: int, N: int, K: int, n: int) -> Fraction:
    lo = max(0, n + K - N)
    tail = sum((exact_pmf(t, N, K, n) for t in range(lo, x)), Fraction(0))
    if x > min(n, K):
        tail = Fraction(1)
    return Fraction(1, 2) * exact_pmf(x, N, K, n) + tail


def full_support_pmf(N: int, K: int, n: int) -> np.ndarray:
    """Unit-normalized pmf over the whole support, indexed from its lower end."""
    lo, hi = max(0, n + K - N), min(n, K)
    if hi == lo:
        return np.ones(1)
    xs = np.arange(lo, hi, dtype=np.float64)
    ratios = (np.log((K - xs) * (n - xs))
              - np.log((xs + 1.0) * (N - K - n + xs + 1.0)))
    logw = np.concatenate(([0.0], np.cumsum(ratios)))
    logw -= logw.max()
    out = np.exp(logw)
    out /= np.cumsum(out)[-1]
    return out


def full_support_mid_p(xs: list[int], N: int, K: int, n: int, upper: bool) -> list[float]:
    """Upper or lower mid-p tail at each of ``xs``, from running sums of
    :func:`full_support_pmf`: upward from the support's low end, or downward
    from its high end."""
    lo, hi = max(0, n + K - N), min(n, K)
    pmf = full_support_pmf(N, K, n)
    below = np.concatenate(([0.0], np.cumsum(pmf)))  # below[i]: pmf[:i]
    above = np.concatenate(([0.0], np.cumsum(pmf[::-1])))[::-1]  # above[i]: pmf[i:]
    out = []
    for x in xs:
        if x < lo or x > hi:
            out.append(float(upper == (x < lo)))
            continue
        i = x - lo
        tail = above[i + 1] if upper else below[i]
        out.append(min(0.5 * float(pmf[i]) + float(tail), 1.0))
    return out


def bh_reference(pvalues: list[float]) -> list[float]:
    """O(m^2) definitional step-up: p_adj(i) = min_{j>=i} min(1, m p_(j) / j)."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    out = [0.0] * m
    for rank, i in enumerate(order, start=1):
        candidates = [min(1.0, m * pvalues[order[j - 1]] / j) for j in range(rank, m + 1)]
        out[i] = min(candidates)
    return out


def block_link_counts(graph: Graph, assignment, q: int
                      ) -> tuple[list[list[int]], list[int], list[int]]:
    """Per-edge Python count of the test family's inputs for ``q`` communities.

    Returns ``(links, outs, ins)``: ``links[r][s]`` counts links from
    community r to s (undirected: each edge both ways, so the diagonal holds
    stubs, twice the internal edges), and ``outs[r]``/``ins[r]`` sum the
    out/in stubs of r's nodes (undirected: both are the degree sums).
    """
    asg = [int(c) for c in assignment]
    links = [[0] * q for _ in range(q)]
    outs, ins = [0] * q, [0] * q
    arrows = graph.edges.tolist()
    if not graph.directed:
        arrows += [[v, u] for u, v in arrows]
    for u, v in arrows:
        links[asg[u]][asg[v]] += 1
        outs[asg[u]] += 1
        ins[asg[v]] += 1
    return links, outs, ins


def random_graph(rng: np.random.Generator, n: int, m_target: int) -> Graph:
    """Undirected graph on labels n0.. with min(m_target, n(n-1)/2) distinct
    edges, drawn one endpoint pair at a time and stored in sorted order."""
    pairs = set()
    m_target = min(m_target, n * (n - 1) // 2)
    while len(pairs) < m_target:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Graph(tuple(f"n{i}" for i in range(n)), sorted(pairs))


def random_params(rng: np.random.Generator, n_max: int = 60) -> tuple[int, int, int]:
    """A valid (N, K, n): population, successes and draws."""
    N = int(rng.integers(0, n_max + 1))
    K = int(rng.integers(0, N + 1))
    n = int(rng.integers(0, N + 1))
    return N, K, n


def linkage_reference(values) -> tuple[tuple[int, int, float], ...]:
    """Complete linkage by recomputing max-over-members distances each step.

    Ids follow the same scheme as the library: leaves 0..n-1, the t-th merge
    creates id n+t; the merged pair minimizes (distance, id, id).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    members: dict[int, frozenset[int]] = {i: frozenset({i}) for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for i in sorted(members):
            for j in sorted(members):
                if i >= j:
                    continue
                d = max(values[a, b] for a in members[i] for b in members[j])
                if best is None or (d, i, j) < best:
                    best = (d, i, j)
        d, i, j = best
        merges.append((i, j, float(d)))
        members[n + step] = members.pop(i) | members.pop(j)
    return tuple(merges)


def pairwise_sample_graph(assignment, theta, weights, seed,
                          labels: tuple[str, ...] | None = None) -> Graph:
    """Draw one undirected graph from block rates over a fixed assignment.

    Blocks referenced by ``assignment`` may be empty (theta rows for absent
    blocks are simply unused). Uniform variates are consumed blockwise over
    pairs r <= s in lexicographic order, skipping zero-rate blocks, which
    makes the draw bit-reproducible for a given seed.
    """
    asg = np.asarray(assignment, dtype=np.int64)
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    v = asg.size
    q = theta.shape[0]
    if w.shape != (v,):
        raise ValueError("one weight per node required")
    if asg.size and (asg.min() < 0 or asg.max() >= q):
        raise ValueError("assignment references a block outside theta")
    rng = derive_rng(seed)
    members = [np.flatnonzero(asg == r) for r in range(q)]
    chunks: list[np.ndarray] = []
    n_clamped = 0
    for r in range(q):
        for s in range(r, q):
            rate = theta[r, s]
            if rate == 0.0 or not members[r].size or not members[s].size:
                continue
            if r == s:
                i_loc, j_loc = np.triu_indices(members[r].size, k=1)
                u, vv = members[r][i_loc], members[r][j_loc]
            else:
                u = np.repeat(members[r], members[s].size)
                vv = np.tile(members[s], members[r].size)
            if not u.size:
                continue
            probs = w[u] * w[vv] * rate
            n_clamped += int(np.count_nonzero(probs > 1.0))
            np.minimum(probs, 1.0, out=probs)
            mask = rng.random(probs.size) < probs
            if mask.any():
                chunks.append(np.stack([u[mask], vv[mask]], axis=1))
    if n_clamped:
        warnings.warn(f"clamped {n_clamped} pair probabilities to 1; "
                      "weights or rates may be misconfigured", stacklevel=2)
    edges = (np.concatenate(chunks) if chunks
             else np.empty((0, 2), dtype=np.int64))
    if labels is None:
        labels = tuple(f"n{i}" for i in range(v))
    return Graph(labels, edges)


def argsort_graph_edges(n: int, edges, directed: bool) -> np.ndarray:
    """The edge array ``Graph`` stores for ``n`` nodes, built the way its
    constructor once did: a stacked (min, max) copy when undirected, a stable
    argsort of the u * n + v keys, and two gathers; ValueError where it
    raised one."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if np.any((edges < 0) | (edges >= n)):
        raise ValueError("edge endpoint out of range")
    u, v = edges[:, 0], edges[:, 1]
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    if not directed:
        edges = np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1)
    key = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges are not allowed")
    return edges[order]


def decoded_lines(path: Path):
    """``(line number, text)`` per line of ``path``: its bytes less a leading
    UTF-8 BOM, split after each LF, CRLF or lone CR, and each line (with its
    end) decoded on its own. A line that is not UTF-8 raises a
    GraphFormatError with the codec's reason."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    for lineno, raw in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def line_loop_load_graph(path, directed: bool = False) -> Graph:
    """Parse an edge list one line at a time, deduplicating with a set."""
    path = Path(path)
    labels: list[str] = []
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n_dups = 0
    n_loops = 0
    for lineno, line in decoded_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two node labels, got {len(tokens)} tokens")
        u_lab, v_lab = tokens
        for lab in (u_lab, v_lab):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        u, v = index[u_lab], index[v_lab]
        if u == v:
            n_loops += 1
            continue
        key = (u, v) if directed or u < v else (v, u)
        if key in seen:
            n_dups += 1
            continue
        seen.add(key)
        pairs.append(key)
    if n_loops:
        warnings.warn(f"{path}: dropped {n_loops} self-loop line(s)", stacklevel=2)
    if n_dups:
        warnings.warn(f"{path}: deduplicated {n_dups} repeated edge line(s)", stacklevel=2)
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return Graph(tuple(labels), edges, directed=directed)


def line_loop_load_partition(path, graph: Graph) -> Partition:
    """Parse a partition file one line at a time into a label -> community
    dict, then number communities by first appearance along the graph's
    node order."""
    path = Path(path)
    mapping: dict[str, str] = {}
    for lineno, line in decoded_lines(path):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'node community', "
                                   f"got {len(tokens)} tokens")
        node, comm = tokens
        if node in mapping:
            raise GraphFormatError(f"{path}:{lineno}: duplicate line for node {node!r}")
        if node not in graph.node_labels:
            raise GraphFormatError(f"{path}:{lineno}: unknown node label {node!r}")
        mapping[node] = comm
    missing = [lab for lab in graph.node_labels if lab not in mapping]
    if missing:
        more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
        raise GraphFormatError(f"{path}: uncovered node {missing[0]!r}{more}")
    ids: dict[str, int] = {}
    for lab in graph.node_labels:
        ids.setdefault(mapping[lab], len(ids))
    return Partition(np.array([ids[mapping[lab]] for lab in graph.node_labels],
                              dtype=np.int64), len(ids))


def definitional_csv_index(edges: set[frozenset], community: dict, alpha: float,
                           weighted: bool) -> float:
    """UCSV (WCSV if ``weighted``) of ``community`` (label -> id) on the
    undirected label ``edges`` among its labels: one upper mid-p test per
    community and one lower mid-p test per community pair, on link counts
    against stub totals, BH-adjusted over the family; a test with an
    endpoint of no stubs never rejects."""
    links: Counter = Counter()
    stubs: Counter = Counter()
    for a, b in map(tuple, edges):
        if a in community and b in community:
            ca, cb = community[a], community[b]
            links[ca, cb] += 1
            links[cb, ca] += 1
            stubs[ca] += 1
            stubs[cb] += 1
    comms = list(dict.fromkeys(community.values()))
    tests = [(r, s) for i, r in enumerate(comms) for s in comms[i:]]
    total = sum(stubs.values())
    raw = [full_support_mid_p([links[r, s]], total, stubs[s], stubs[r], upper=r == s)[0]
           for r, s in tests]
    rejected = [adj for (r, s), adj in zip(tests, bh_reference(raw))
                if stubs[r] and stubs[s] and adj <= alpha]
    return sum((alpha - adj) / alpha if weighted else 1.0 for adj in rejected) / len(tests)


def definitional_pair(g1: Graph, g2: Graph, partition_of, alpha: float, min_size: int,
                      use_wcsv: bool) -> tuple[float, float, bool, bool]:
    """``(R_12, R_21, defined_12, defined_21)`` for two undirected graphs.

    The graphs are cut to their common labels, and ``partition_of(edges,
    labels)`` gives each cut graph's label -> community map. Communities of
    more than ``min_size`` of the common labels survive. R_12 is the index
    of graph 1's surviving partition on graph 2 over its index on graph 1,
    both over the surviving labels; a zero own index leaves R undefined, 0.
    ValueError when no label is common or a side keeps no community."""
    common = set(g1.node_labels) & set(g2.node_labels)
    if not common:
        raise ValueError("graphs share no node labels")
    edges = [{frozenset((g.node_labels[u], g.node_labels[v])) for u, v in g.edges.tolist()}
             for g in (g1, g2)]
    edges = [{e for e in side if e <= common} for side in edges]
    kept = []
    for side in edges:
        community = partition_of(side, common)
        size = Counter(community.values())
        kept.append({lab: c for lab, c in community.items() if size[c] > min_size})
        if not kept[-1]:
            raise ValueError("no communities survive the size filter")
    out = []
    for own, other, community in ((edges[0], edges[1], kept[0]), (edges[1], edges[0], kept[1])):
        own_index = definitional_csv_index(own, community, alpha, use_wcsv)
        other_index = definitional_csv_index(other, community, alpha, use_wcsv)
        out.append((other_index / own_index, True) if own_index else (0.0, False))
    return out[0][0], out[1][0], out[0][1], out[1][1]


def recursive_from_newick(text: str) -> Dendrogram:
    """Parse a binary Newick tree by recursive descent into a parse tree."""
    s = text.strip()
    if not s.endswith(";"):
        raise ValueError("newick text must end with ';'")
    s = s[:-1]
    pos = 0

    def expect(ch: str) -> None:
        nonlocal pos
        if pos >= len(s) or s[pos] != ch:
            raise ValueError(f"expected {ch!r} at {pos}")
        pos += 1

    def parse_node() -> tuple:
        nonlocal pos
        if pos < len(s) and s[pos] == "(":
            pos += 1
            left = parse_node()
            expect(",")
            right = parse_node()
            expect(")")
            node: tuple = (left, right)
        else:
            start = pos
            while pos < len(s) and s[pos] not in ":,()":
                pos += 1
            node = (s[start:pos],)
        branch = 0.0
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in ",()":
                pos += 1
            branch = float(s[start:pos])
        return node + (branch,)

    leaves: list[str] = []
    internals: list[tuple] = []

    def walk(node: tuple) -> tuple[int, float]:
        """Post-order; returns (kind-tagged index, height)."""
        if len(node) == 2:
            leaves.append(node[0])
            return len(leaves) - 1, 0.0
        (left, right, _) = node
        l_ref, l_height = walk(left)
        r_ref, r_height = walk(right)
        height = max(l_height + left[-1], r_height + right[-1])
        internals.append((l_ref, r_ref, height))
        return -len(internals), height

    try:
        tree = parse_node()
        if pos != len(s):
            raise ValueError(f"trailing newick content at {pos}")
        walk(tree)
    except RecursionError:
        raise ValueError("newick nesting too deep") from None
    if len(leaves) < 2:
        raise ValueError("newick tree must contain at least two leaves")
    n = len(leaves)
    order = sorted(range(len(internals)), key=lambda i: (internals[i][2], i))
    position = {-(i + 1): n + rank for rank, i in enumerate(order)}

    def resolve(ref: int) -> int:
        return ref if ref >= 0 else position[ref]

    merges = tuple((resolve(a), resolve(b), h)
                   for a, b, h in (internals[i] for i in order))
    return Dendrogram(merges, tuple(leaves))
