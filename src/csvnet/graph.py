"""Immutable sparse graphs, node partitions, and edge-list / partition file I/O.

Graphs are label-addressed on the outside and integer-indexed internally.
Undirected edges are stored canonically with ``u <= v``; directed graphs
store arrows as ordered pairs. Self-loops and duplicate edges are rejected
by the constructor; :func:`load_graph` drops them with a summary warning.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


_SAVE_BLOCK = 1 << 14  # edges formatted per write in save_graph


class GraphFormatError(ValueError):
    """A graph or partition file could not be parsed."""


@dataclass(eq=False)
class Graph:
    """A loop-free simple graph with string node labels.

    Immutable after construction: the edge array and the cached degree and
    adjacency arrays are marked read-only.
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
        raise ValueError(f"unknown node label {min(extra)!r}")
    ids: dict[object, int] = {}
    assignment = [ids.setdefault(mapping[lab], len(ids)) for lab in graph.node_labels]
    return Partition(np.array(assignment, dtype=np.int64), len(ids))


def _read_records(path: Path, expected: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, first, second)`` for each record of a two-column file.

    The file is read as UTF-8 with an optional BOM; blank lines and lines
    starting with '#' are skipped, and any other line must hold exactly two
    whitespace-separated tokens.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {expected}, got {len(tokens)} tokens")
            yield lineno, tokens[0], tokens[1]


def load_graph(path: str | Path, directed: bool = False) -> Graph:
    """Parse a whitespace-separated edge list with '#' comment lines.

    Nodes are numbered in order of first appearance, self-loop lines
    included. Self-loops are dropped and repeated edges (in either
    orientation, when undirected) deduplicated; each cleanup emits one
    summary warning with the affected line count.
    """
    path = Path(path)
    index: dict[str, int] = {}
    ids = [index.setdefault(lab, len(index))
           for _, u_lab, v_lab in _read_records(path, "two node labels")
           for lab in (u_lab, v_lab)]
    u, v = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    loop = u == v
    n_loops = int(np.count_nonzero(loop))
    u, v = u[~loop], v[~loop]
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    n = len(index)
    keys = np.unique(u * n + v)
    n_dups = u.size - keys.size
    if n_loops:
        warnings.warn(f"{path}: dropped {n_loops} self-loop line(s)", stacklevel=2)
    if n_dups:
        warnings.warn(f"{path}: deduplicated {n_dups} repeated edge line(s)", stacklevel=2)
    return Graph(tuple(index), np.stack(np.divmod(keys, n), axis=1), directed=directed)


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write an edge list in the same format :func:`load_graph` reads.

    The format cannot represent isolated nodes; they are silently absent
    from the file (callers that persist partitions alongside a graph should
    restrict them to the nodes that survive a round trip).
    """
    labels = graph.node_labels
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # Blocks of rows keep the Python lists small next to the edge array.
        for lo in range(0, graph.n_edges, _SAVE_BLOCK):
            rows = graph.edges[lo:lo + _SAVE_BLOCK].tolist()
            fh.write("".join([f"{labels[u]}\t{labels[v]}\n" for u, v in rows]))


def load_partition(path: str | Path, graph: Graph) -> Partition:
    """Parse a two-column "node_label community_label" file for ``graph``."""
    path = Path(path)
    mapping: dict[str, str] = {}
    for lineno, node, comm in _read_records(path, "'node community'"):
        if node in mapping:
            raise GraphFormatError(f"{path}:{lineno}: duplicate line for node {node!r}")
        if node not in graph.label_index:
            raise GraphFormatError(f"{path}:{lineno}: unknown node label {node!r}")
        mapping[node] = comm
    try:
        return partition_from_mapping(graph, mapping)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def save_partition(partition: Partition, labels: Sequence[str], path: str | Path) -> None:
    """Write one "node_label community" line per node; ``labels[i]`` names
    node ``i`` of ``partition``."""
    if partition.n_nodes != len(labels):
        raise ValueError("partition does not match the number of labels")
    lines = [f"{lab}\t{c}\n" for lab, c in zip(labels, partition.assignment.tolist())]
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


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

