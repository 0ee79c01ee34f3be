"""Immutable sparse graphs, node partitions, and edge-list / partition file I/O.

Graphs are label-addressed on the outside and integer-indexed internally.
Undirected edges are stored canonically with ``u <= v``; directed graphs
store arrows as ordered pairs. Self-loops and duplicate edges are rejected
by the constructor and silently cleaned (with a summary warning) by
:func:`load_graph`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class GraphFormatError(ValueError):
    """A graph or partition file could not be parsed."""


@dataclass(eq=False)
class Graph:
    """A loop-free simple graph with string node labels.

    Immutable after construction; edge arrays are marked read-only so the
    instance can be shared freely across threads.
    """

    node_labels: tuple[str, ...]
    edges: np.ndarray
    directed: bool = False

    def __post_init__(self) -> None:
        self.node_labels = tuple(str(x) for x in self.node_labels)
        if len(set(self.node_labels)) != len(self.node_labels):
            raise ValueError("node labels must be unique")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        n = len(self.node_labels)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            if not self.directed:
                edges = np.sort(edges, axis=1)
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
                raise ValueError("duplicate edges are not allowed")
        edges.setflags(write=False)
        self.edges = edges

    @property
    def n_nodes(self) -> int:
        return len(self.node_labels)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.node_labels)}

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node stub counts (undirected) or in+out arrow counts (directed)."""
        deg = np.bincount(self.edges.ravel(), minlength=self.n_nodes)
        deg.setflags(write=False)
        return deg

    @cached_property
    def out_degrees(self) -> np.ndarray:
        if not self.directed:
            raise ValueError("out_degrees is only defined for directed graphs")
        deg = np.bincount(self.edges[:, 0], minlength=self.n_nodes)
        deg.setflags(write=False)
        return deg

    @cached_property
    def in_degrees(self) -> np.ndarray:
        if not self.directed:
            raise ValueError("in_degrees is only defined for directed graphs")
        deg = np.bincount(self.edges[:, 1], minlength=self.n_nodes)
        deg.setflags(write=False)
        return deg

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric adjacency as ``(indptr, indices)`` (undirected graphs only).

        Node ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]`` in
        ascending order. Built on first use.
        """
        if self.directed:
            raise ValueError("the adjacency is only built for undirected graphs")
        indptr, indices, _ = symmetric_csr(self.n_nodes, self.edges[:, 0], self.edges[:, 1])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices


def symmetric_csr(n: int, u: np.ndarray, v: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR rows over ``n`` nodes for the undirected pairs ``(u[k], v[k])``.

    Returns ``(indptr, indices, slot)``; each row lists its neighbours in
    ascending order, and entry ``t`` comes from pair ``slot[t] % len(u)``,
    so per-pair values ``x`` follow as ``np.concatenate([x, x])[slot]``.
    """
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    slot = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[slot], slot


@dataclass(eq=False)
class Partition:
    """Assignment of every node of a host graph to one of ``q`` communities.

    Loaders and detection algorithms always produce dense partitions in which
    every community id is non-empty; :func:`csvnet.dcsbm.degrade_partition`
    may leave a community empty, which downstream tests treat as degenerate.
    """

    assignment: np.ndarray
    q: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise ValueError("community id out of range")
        a.setflags(write=False)
        self.assignment = a

    @property
    def n_nodes(self) -> int:
        return self.assignment.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.q)

    def communities(self) -> list[np.ndarray]:
        """Node index sets per community id."""
        order = np.argsort(self.assignment, kind="stable")
        splits = np.searchsorted(self.assignment[order], np.arange(1, self.q))
        return list(np.split(order, splits))


def partition_from_mapping(graph: Graph, mapping: dict[str, object]) -> Partition:
    """Build a dense Partition of ``graph`` from a label -> community mapping.

    Community labels are remapped to 0..q-1 in order of first appearance
    along the graph's node order.
    """
    missing = [lab for lab in graph.node_labels if lab not in mapping]
    if missing:
        raise ValueError(f"uncovered node {missing[0]!r} (and {len(missing) - 1} more)"
                         if len(missing) > 1 else f"uncovered node {missing[0]!r}")
    extra = set(mapping) - set(graph.node_labels)
    if extra:
        lab = sorted(extra)[0]
        raise ValueError(f"unknown node label {lab!r}")
    ids: dict[object, int] = {}
    assignment = np.empty(graph.n_nodes, dtype=np.int64)
    for i, lab in enumerate(graph.node_labels):
        c = mapping[lab]
        if c not in ids:
            ids[c] = len(ids)
        assignment[i] = ids[c]
    return Partition(assignment, len(ids))


def load_graph(path: str | Path, directed: bool = False) -> Graph:
    """Parse a whitespace-separated edge list with '#' comment lines.

    Duplicate edges are deduplicated and self-loops dropped; each cleanup
    emits one summary warning with the affected line count.
    """
    path = Path(path)
    labels: list[str] = []
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n_dups = 0
    n_loops = 0
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
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


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write an edge list in the same format :func:`load_graph` reads.

    The format cannot represent isolated nodes; they are silently absent
    from the file (callers that persist partitions alongside a graph should
    restrict them to the nodes that survive a round trip).
    """
    lines = [f"{graph.node_labels[u]}\t{graph.node_labels[v]}\n" for u, v in graph.edges]
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def load_partition(path: str | Path, graph: Graph) -> Partition:
    """Parse a two-column "node_label community_label" file for ``graph``."""
    path = Path(path)
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'node community', got {len(tokens)} tokens")
            node, comm = tokens
            if node in mapping:
                raise GraphFormatError(f"{path}:{lineno}: duplicate line for node {node!r}")
            if node not in graph.label_index:
                raise GraphFormatError(f"{path}:{lineno}: unknown node label {node!r}")
            mapping[node] = comm
    uncovered = [lab for lab in graph.node_labels if lab not in mapping]
    if uncovered:
        raise GraphFormatError(f"{path}: uncovered node {uncovered[0]!r}"
                               + (f" (and {len(uncovered) - 1} more)" if len(uncovered) > 1 else ""))
    return partition_from_mapping(graph, mapping)


def save_partition(partition: Partition, graph: Graph, path: str | Path) -> None:
    if partition.n_nodes != graph.n_nodes:
        raise ValueError("partition does not match graph size")
    lines = [f"{lab}\t{partition.assignment[i]}\n" for i, lab in enumerate(graph.node_labels)]
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def total_degree(graph: Graph, nodes) -> int:
    """Sum of degrees over ``nodes``; the whole-graph value is 2|E| (undirected)."""
    idx = _as_index_array(graph, nodes)
    return int(graph.degrees[idx].sum())


def out_in_degree(graph: Graph, nodes) -> tuple[int, int]:
    """(outdegree, indegree) of a node set in a directed graph."""
    if not graph.directed:
        raise ValueError("out_in_degree requires a directed graph")
    idx = _as_index_array(graph, nodes)
    return int(graph.out_degrees[idx].sum()), int(graph.in_degrees[idx].sum())


def observed_links(graph: Graph, a, b) -> int:
    """Number of links from node set ``a`` to node set ``b``.

    Undirected with ``a == b`` (same membership): counts edge stubs, i.e.
    twice the number of internal edges, so the hypergeometric null "draw
    d_a stubs out of d_V" stays consistent. Undirected with disjoint sets:
    edges with one endpoint in each. Directed: arrows from ``a`` to ``b``.
    """
    a_idx = _as_index_array(graph, a)
    b_idx = _as_index_array(graph, b)
    in_a = np.zeros(graph.n_nodes, dtype=bool)
    in_a[a_idx] = True
    in_b = np.zeros(graph.n_nodes, dtype=bool)
    in_b[b_idx] = True
    same = bool(np.array_equal(in_a, in_b))
    if not same and np.any(in_a & in_b):
        raise ValueError("node sets must be disjoint unless identical")
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    if graph.directed:
        return int(np.count_nonzero(in_a[u] & in_b[v]))
    if same:
        return 2 * int(np.count_nonzero(in_a[u] & in_a[v]))
    return int(np.count_nonzero((in_a[u] & in_b[v]) | (in_b[u] & in_a[v])))


def induced_subgraph(graph: Graph, keep) -> Graph:
    """Subgraph on ``keep`` (a set of node labels) with all surviving edges."""
    keep = set(keep)
    kept = [lab for lab in graph.node_labels if lab in keep]
    if not kept:
        raise ValueError("keep set does not intersect the graph's nodes")
    old_idx = np.array([graph.label_index[lab] for lab in kept], dtype=np.int64)
    remap = np.full(graph.n_nodes, -1, dtype=np.int64)
    remap[old_idx] = np.arange(len(kept))
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    mask = (remap[u] >= 0) & (remap[v] >= 0)
    new_edges = np.stack([remap[u[mask]], remap[v[mask]]], axis=1)
    return Graph(tuple(kept), new_edges, directed=graph.directed)


def _as_index_array(graph: Graph, nodes) -> np.ndarray:
    idx = np.asarray(sorted(int(i) for i in nodes), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= graph.n_nodes):
        raise ValueError("node index out of range")
    return idx
