"""Immutable sparse graphs, node partitions, and edge-list / partition file I/O.

Graphs are label-addressed on the outside and integer-indexed internally.
Undirected edges are stored canonically with ``u <= v``; directed graphs
store arrows as ordered pairs. Self-loops and duplicate edges are rejected
by the constructor; :func:`load_graph` drops them with a summary warning.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from pathlib import Path

import numpy as np


_SAVE_BLOCK = 1 << 14  # edges formatted per write in save_graph
_READ_CHUNK = 1 << 16  # characters read per chunk by _read_records
_KEY_SHIFT = 32  # an edge key holds u above this bit and v below it
# Code points str.split() separates on (all of them are at most U+3000);
# the last entry stands for every code point above the table.
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


class GraphFormatError(ValueError):
    """A graph or partition file could not be parsed."""


def _edge_keys(u: np.ndarray, v: np.ndarray, directed: bool) -> np.ndarray:
    """One int64 key ``u << _KEY_SHIFT | v`` per edge (u[k], v[k]), lower
    endpoint first unless ``directed``; sorted keys order edges by (u, v).
    Ids must be below ``2**(_KEY_SHIFT - 1)``."""
    if directed:
        key = u << _KEY_SHIFT
        key |= v
    else:
        key = np.minimum(u, v)
        key <<= _KEY_SHIFT
        key |= np.maximum(u, v)
    return key


def _key_edges(keys: np.ndarray) -> np.ndarray:
    """The (m, 2) edge array of ``keys`` from :func:`_edge_keys`."""
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, 1 << _KEY_SHIFT, out=(edges[:, 0], edges[:, 1]))
    return edges


@dataclass(eq=False)
class Graph:
    """A loop-free simple graph with string node labels.

    Immutable after construction: the edge array and the cached degree
    arrays are marked read-only.
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
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        u, v = edges[:, 0], edges[:, 1]
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if n > 1 << (_KEY_SHIFT - 1):
            raise ValueError(f"more than 2**{_KEY_SHIFT - 1} nodes")
        # Sorted keys order the edges and put duplicates next to each other.
        key = _edge_keys(u, v, self.directed)
        key.sort()
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edges are not allowed")
        edges = _key_edges(key)
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


def first_appearance_ids(values) -> tuple[np.ndarray, int]:
    """Number ``values`` 0, 1, ... in order of first appearance, plus the count."""
    first, inverse = np.unique(values, return_index=True, return_inverse=True)[1:]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], first.size


def _dense_partition(graph: Graph, nodes: np.ndarray, comms: np.ndarray) -> Partition:
    """The Partition of ``graph`` that puts node ``nodes[k]`` in community
    ``comms[k]``. ``nodes`` are distinct, ``comms`` take every value of
    0..c-1, and communities are renumbered in order of first appearance
    along the graph's node order."""
    asg = np.full(graph.n_nodes, -1, dtype=np.int64)
    asg[nodes] = comms
    missing = np.flatnonzero(asg < 0)
    if missing.size:
        name = repr(graph.node_labels[missing[0]])
        raise ValueError(f"uncovered node {name} (and {missing.size - 1} more)"
                         if missing.size > 1 else f"uncovered node {name}")
    return Partition(*first_appearance_ids(asg))


def _read_records(path: Path, expected: str) -> Iterator[tuple[list[str], np.ndarray]]:
    """Yield ``(tokens, linenos)`` per chunk of a two-column file: the
    records' tokens as ``[first, second, first, second, ...]`` and each
    record's line number.

    The file is read as UTF-8 with an optional BOM and universal newlines,
    about ``_READ_CHUNK`` characters at a time, each chunk cut after its last
    line end. Tokens are separated as by ``str.split()``. Blank lines and
    lines whose first token starts with '#' are skipped. The first line that
    holds a byte that is not UTF-8, or that is no comment and does not hold
    exactly two tokens, raises a GraphFormatError naming it, once the
    records before it are yielded.
    """
    base = 0  # lines before the chunk
    # Bytes that are not UTF-8 read as code points U+DC80..U+DCFF.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for text in _text_chunks(fh):
            if not base:  # the first chunk (utf-8-sig would drop a partial BOM)
                text = text.removeprefix("\ufeff")
            # Record structure from the code points: each token begins at a
            # non-space after a space, and its line is the number of line
            # ends before it.
            cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
            space = _SPACE[np.minimum(cp, _SPACE.size - 1)]
            begins = np.flatnonzero(~space & np.append(True, space[:-1]))
            ends = np.flatnonzero(cp == ord("\n"))
            line = np.searchsorted(ends, begins)
            heads = np.flatnonzero(np.diff(line, prepend=-1))  # first token per line
            counts = np.diff(heads, append=begins.size)
            record = cp[begins[heads]] != ord("#")
            # A line is bad if it holds a byte that is not UTF-8 (an escape is
            # a token's code point, so its line has a head) or if it is no
            # comment and does not hold two tokens.
            escapes = np.flatnonzero((cp >= 0xDC80) & (cp <= 0xDCFF))
            undecodable = np.isin(line[heads], np.searchsorted(ends, escapes))
            bad = np.flatnonzero(undecodable | record & (counts != 2))
            if bad.size:
                record[bad[0]:] = False
            keep = np.repeat(record, counts).tolist()
            yield list(compress(text.split(), keep)), base + 1 + line[heads[record]]
            if bad.size:
                k = bad[0]
                where = f"{path}:{base + 1 + line[heads[k]]}"
                if undecodable[k]:  # the codec names what is wrong with it
                    try:
                        text.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise GraphFormatError(f"{where}: not UTF-8 text ({exc.reason})") from None
                raise GraphFormatError(f"{where}: expected {expected}, got {counts[k]} tokens")
            base += ends.size


def _text_chunks(fh) -> Iterator[str]:
    """The text of ``fh`` in pieces of about ``_READ_CHUNK`` characters,
    each cut after its last line end; a line longer than that is one piece."""
    pending: list[str] = []
    while block := fh.read(_READ_CHUNK):
        cut = block.rfind("\n") + 1
        if cut:
            yield "".join([*pending, block[:cut]])
            pending.clear()
        pending.append(block[cut:])
    if rest := "".join(pending):
        yield rest


def load_graph(path: str | Path, directed: bool = False) -> Graph:
    """Parse a whitespace-separated edge list with '#' comment lines.

    Nodes are numbered in order of first appearance, self-loop lines
    included. Self-loops are dropped and repeated edges (in either
    orientation, when undirected) deduplicated; each cleanup emits one
    summary warning with the affected line count.
    """
    path = Path(path)
    # Labels are numbered as they stream in, and each chunk's records become
    # edge keys at once, so no chunk's strings or id arrays outlive it.
    ids: defaultdict[str, int] = defaultdict(count().__next__)
    keys = [np.empty(0, dtype=np.int64)]
    n_loops = 0
    for tokens, _ in _read_records(path, "two node labels"):
        uv = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
        # Free this chunk's strings before the next chunk is split: strings
        # of two chunks side by side leave the kept labels spread over more
        # allocator arenas, which the process then keeps.
        del tokens
        if len(ids) > 1 << (_KEY_SHIFT - 1):
            raise GraphFormatError(f"{path}: more than 2**{_KEY_SHIFT - 1} node labels")
        u, v = uv[0::2], uv[1::2]
        pair = u != v
        n_loops += pair.size - int(np.count_nonzero(pair))
        keys.append(_edge_keys(u[pair], v[pair], directed))
    keys = np.concatenate(keys)
    n_pairs = keys.size
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    if n_loops:
        warnings.warn(f"{path}: dropped {n_loops} self-loop line(s)", stacklevel=2)
    if n_pairs > keys.size:
        warnings.warn(f"{path}: deduplicated {n_pairs - keys.size} repeated edge line(s)",
                      stacklevel=2)
    edges = _key_edges(keys)
    del keys  # before Graph() builds its own keys
    return Graph(tuple(ids), edges, directed=directed)


def fmt_float(x) -> str:
    """Float text of every csvnet table: the shortest that reads back exactly."""
    return repr(float(x))


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write an edge list in the same format :func:`load_graph` reads.

    The format cannot represent isolated nodes; they are silently absent
    from the file (callers that persist partitions alongside a graph should
    restrict them to the nodes that survive a round trip).
    """
    # Each node's two line pieces are built once; a row is then its first
    # endpoint's "label\t" and its second's "label\n", interleaved.
    tab = [label + "\t" for label in graph.node_labels]
    end = [label + "\n" for label in graph.node_labels]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # Blocks of rows keep the Python lists small next to the edge array.
        for lo in range(0, graph.n_edges, _SAVE_BLOCK):
            block = graph.edges[lo:lo + _SAVE_BLOCK]
            pieces = [None] * (2 * len(block))
            pieces[::2] = map(tab.__getitem__, block[:, 0].tolist())
            pieces[1::2] = map(end.__getitem__, block[:, 1].tolist())
            fh.write("".join(pieces))


def load_partition(path: str | Path, graph: Graph) -> Partition:
    """Parse a two-column "node_label community_label" file for ``graph``."""
    path = Path(path)
    index = graph.label_index
    seen = np.zeros(graph.n_nodes + 1, dtype=bool)  # unknown labels' -1 reads slot n
    comm_ids = defaultdict(count().__next__)
    nodes, comms = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for tokens, linenos in _read_records(path, "'node community'"):
        at = np.fromiter(map(index.get, tokens[::2], repeat(-1)), np.int64, linenos.size)
        # A line fails if its node is unknown (-1) or named on an earlier
        # line, of this chunk or another.
        again = np.ones(at.size, dtype=bool)
        again[np.unique(at, return_index=True)[1]] = False
        bad = np.flatnonzero((at < 0) | again | seen[at])
        if bad.size:
            k = bad[0]
            what = "unknown node label" if at[k] < 0 else "duplicate line for node"
            raise GraphFormatError(f"{path}:{linenos[k]}: {what} {tokens[2 * k]!r}")
        seen[at] = True
        nodes.append(at)
        comms.append(np.fromiter(map(comm_ids.__getitem__, tokens[1::2]), np.int64, at.size))
    try:
        return _dense_partition(graph, np.concatenate(nodes), np.concatenate(comms))
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def partition_lines(partition: Partition, labels: Sequence[str]) -> list[str]:
    """One "node_label community" line per node; ``labels[i]`` names node ``i``."""
    if partition.n_nodes != len(labels):
        raise ValueError("partition does not match the number of labels")
    return [f"{lab}\t{c}\n" for lab, c in zip(labels, partition.assignment.tolist())]


def save_partition(partition: Partition, labels: Sequence[str], path: str | Path) -> None:
    """Write the :func:`partition_lines` of ``partition`` to ``path``."""
    Path(path).write_text("".join(partition_lines(partition, labels)), "utf-8", newline="\n")


def induced_subgraph(graph: Graph, keep) -> Graph:
    """Subgraph on ``keep`` (a set of node labels) with all surviving edges;
    ``graph`` itself, which is immutable, when every node is kept."""
    keep = set(keep)
    kept = [lab for lab in graph.node_labels if lab in keep]
    if not kept:
        raise ValueError("keep set does not intersect the graph's nodes")
    if len(kept) == graph.n_nodes:
        return graph
    old_idx = np.array([graph.label_index[lab] for lab in kept], dtype=np.int64)
    remap = np.full(graph.n_nodes, -1, dtype=np.int64)
    remap[old_idx] = np.arange(len(kept))
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    mask = (remap[u] >= 0) & (remap[v] >= 0)
    new_edges = np.stack([remap[u[mask]], remap[v[mask]]], axis=1)
    return Graph(tuple(kept), new_edges, directed=graph.directed)

