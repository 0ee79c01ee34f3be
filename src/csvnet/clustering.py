"""Community detection and hierarchical clustering.

Louvain and CNM fast greedy both work on per-node neighbour -> weight dicts
built from the edge pairs by ``_adjacency``; Louvain levels are weighted pair
arrays that carry self-loop weight after aggregation.
Complete linkage operates on labeled distance matrices. Newick is written
and read in one non-recursive pass each, so any tree that ``to_newick``
writes, however deep, reads back with ``from_newick``.
All tie-breaks are lexicographic on ids, making every routine deterministic
for a fixed seed.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .graph import Graph, Partition, _edge_keys, _key_edges, first_appearance_ids, fmt_float

_GAIN_EPS = 1e-12


def _edge_count(graph: Graph, what: str) -> int:
    """Edges of ``graph``, which ``what`` needs undirected with at least one."""
    if graph.directed:
        raise ValueError(f"{what} operates on undirected graphs")
    if graph.n_edges == 0:
        raise ValueError(f"{what} needs at least one edge")
    return graph.n_edges


def modularity(graph: Graph, partition: Partition) -> float:
    """Newman-Girvan Q: within-edge fraction minus its degree-model expectation."""
    m = _edge_count(graph, "modularity")
    if partition.n_nodes != graph.n_nodes:
        raise ValueError("partition does not match graph size")
    return _level_q(graph.edges[:, 0], graph.edges[:, 1], np.ones(m),
                    np.zeros(graph.n_nodes), graph.degrees,
                    partition.assignment, partition.q, 2.0 * m)


def _adjacency(n: int, u: np.ndarray, v: np.ndarray,
               w: np.ndarray) -> list[dict[int, float]]:
    """Each node's neighbour -> weight dict for the distinct undirected
    pairs ``(u[k], v[k])`` of weight ``w[k]``."""
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()):
        adj[a][b] = x
        adj[b][a] = x
    return adj


# --- Louvain -----------------------------------------------------------------
#
# Every weight and degree is a sum of unit edge weights, so each sum is exact
# in any order: visit order and tie-breaks alone fix the result.


def _level_q(u: np.ndarray, v: np.ndarray, w: np.ndarray, loop: np.ndarray,
             k: np.ndarray, comm: np.ndarray, n_comm: int, two_w: float) -> float:
    """Modularity of ``comm`` on one level: pairs ``(u, v, w)`` plus self-loops."""
    same = comm[u] == comm[v]
    inside = (np.bincount(comm, loop, n_comm)
              + 2.0 * np.bincount(comm[u[same]], w[same], n_comm))
    tot = np.bincount(comm, k, n_comm)
    return float(np.sum(inside / two_w - (tot / two_w) ** 2))


def _local_pass(adj: list[dict[int, float]], k: np.ndarray, two_w: float,
                rng: np.random.Generator) -> tuple[list[int], bool]:
    """One level of greedy node moves; returns (community ids, any move made).

    ``links[i]`` maps each community adjacent to node ``i`` to the weight
    between them and is kept current as neighbours move. Candidates are
    scanned in ascending id, and a move needs a gain above the best so far
    by _GAIN_EPS.
    """
    n = k.size
    links = [dict(row) for row in adj]
    k = k.tolist()
    comm = list(range(n))
    tot = list(k)
    improved = False
    while True:
        moves = 0
        for i in rng.permutation(n).tolist():
            ci = comm[i]
            row = links[i]
            k_i = k[i]
            tot[ci] -= k_i
            best_c, best_gain = ci, row.get(ci, 0.0) - k_i * tot[ci] / two_w
            for c in sorted(row):
                if c != ci:
                    gain = row[c] - k_i * tot[c] / two_w
                    if gain > best_gain + _GAIN_EPS:
                        best_gain, best_c = gain, c
            tot[best_c] += k_i
            if best_c == ci:
                continue
            comm[i] = best_c
            moves += 1
            for j, w in adj[i].items():
                row_j = links[j]
                left = row_j[ci] - w
                if left:
                    row_j[ci] = left
                else:
                    del row_j[ci]
                row_j[best_c] = row_j.get(best_c, 0.0) + w
        if moves == 0:
            break
        improved = True
    return comm, improved


def _find(owner: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while owner[x] != x:
        owner[x] = owner[owner[x]]
        x = owner[x]
    return x


def louvain_with_history(graph: Graph, seed) -> tuple[Partition, list[float]]:
    """Louvain detection plus the modularity reached after each pass.

    A level is held as pairs ``(u, v, w)`` with ``u < v`` plus per-node
    self-loop weight; aggregation sums pair weights per community pair
    (Blondel et al. 2008).
    """
    m = _edge_count(graph, "louvain")
    rng = derive_rng(seed)
    n = graph.n_nodes
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    w = np.ones(m)
    loop = np.zeros(n)
    two_w = 2.0 * m
    node_map = np.arange(n)
    history: list[float] = []
    while True:
        k = np.bincount(u, w, n) + np.bincount(v, w, n) + loop
        comm, improved = _local_pass(_adjacency(n, u, v, w), k, two_w, rng)
        dense, n_comm = first_appearance_ids(comm)
        history.append(_level_q(u, v, w, loop, k, dense, n_comm, two_w))
        node_map = dense[node_map]
        if not improved or n_comm == n:
            break
        cu, cv = dense[u], dense[v]
        same = cu == cv
        loop = (np.bincount(dense, loop, n_comm)
                + 2.0 * np.bincount(cu[same], w[same], n_comm))
        cross = ~same
        keys, inverse = np.unique(_edge_keys(cu[cross], cv[cross], False),
                                  return_inverse=True)
        w = np.bincount(inverse, w[cross], keys.size)
        u, v, n = *_key_edges(keys).T, n_comm
    return Partition(*first_appearance_ids(node_map)), history


def louvain(graph: Graph, seed=0) -> Partition:
    """Greedy modularity optimization; the seed drives node visit order."""
    return louvain_with_history(graph, seed)[0]


# --- CNM fast greedy ----------------------------------------------------------


def fast_greedy(graph: Graph) -> Partition:
    """CNM agglomeration from singletons, cut at the first modularity maximum.

    Merge candidates are connected community pairs; ties break on the
    smallest (id, id) pair, and a merged community keeps the smaller id.
    As in Clauset, Newman & Moore (2004), every live community keeps a heap
    of its neighbours' ΔQ, and a global heap holds each row's published
    maximum (largest ΔQ, smallest neighbour id on ties).

    Rows are refreshed lazily. A pair needs to sit in only one of its two
    rows, and when b merges into a, the rebuilt row of a holds every pair of
    the merged community exactly, so no other row is touched: the entries
    for a and b in a neighbour's row are void from then on. Between rebuilds
    a row only loses entries, so its published maximum bounds its exact
    maximum from above. It is checked when it surfaces at the global top: if
    its entry went void, the row drops its void entries, is republished,
    and the next maximum is popped.
    """
    m = _edge_count(graph, "fast_greedy")
    n = graph.n_nodes
    two_mm = 2.0 * m * m
    deg = [float(d) for d in graph.degrees.tolist()]
    links = _adjacency(n, graph.edges[:, 0], graph.edges[:, 1], np.ones(m))
    # Row entries are (-ΔQ, neighbour, neighbour's stamp); a community's
    # stamp moves whenever it absorbs another or is absorbed, which voids
    # its old entries in every row. An entry not void is exact: the pair's
    # ΔQ changes only when one end absorbs, which moves that end's stamp
    # and rebuilds its row.
    stamp = [0] * n
    rows: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]
    version = [0] * n
    heap: list[tuple[float, int, int, int, int]] = []

    def publish(x: int) -> None:
        """Drop void entries from the top of row x and offer its maximum to
        the global heap, voiding the one offered before."""
        row = rows[x]
        while row and stamp[row[0][1]] != row[0][2]:
            heapq.heappop(row)
        version[x] += 1
        if row:
            neg_dq, y, _ = row[0]
            heapq.heappush(heap, (neg_dq, min(x, y), max(x, y), x, version[x]))

    def rebuild(x: int) -> None:
        """Recompute row x after its degree changed and publish it."""
        row = links[x]
        deg_x = deg[x]
        negs = [-(w / m - deg_x * deg[y] / two_mm) for y, w in row.items()]
        rows[x] = list(zip(negs, row, map(stamp.__getitem__, row)))
        heapq.heapify(rows[x])
        publish(x)

    for x in range(n):
        rebuild(x)

    q_now = -float(np.sum((graph.degrees / (2.0 * m)) ** 2))
    best_q, best_step = q_now, 0
    merges: list[tuple[int, int]] = []
    while heap:
        neg_dq, a, b, x, vx = heapq.heappop(heap)
        if version[x] != vx:
            continue
        row = rows[x]
        if stamp[row[0][1]] != row[0][2]:
            publish(x)
            continue
        merges.append((a, b))
        q_now -= neg_dq
        if q_now > best_q + 1e-15:
            best_q, best_step = q_now, len(merges)
        deg[a] += deg[b]
        row_a, moved = links[a], links[b]
        links[b], rows[b] = {}, []
        stamp[a] += 1
        stamp[b] += 1
        publish(b)
        del row_a[b], moved[a]
        for y, w in moved.items():
            row_a[y] = row_a.get(y, 0.0) + w
            row_y = links[y]
            del row_y[b]
            row_y[a] = row_a[y]
        rebuild(a)

    owner = list(range(n))
    for a, b in merges[:best_step]:
        owner[_find(owner, b)] = _find(owner, a)
    return Partition(*first_appearance_ids([_find(owner, i) for i in range(n)]))


# --- hierarchical clustering ----------------------------------------------------


@dataclass(eq=False)
class DistanceMatrix:
    """Labeled symmetric distances with a zero diagonal."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.labels = tuple(str(x) for x in self.labels)
        vals = np.asarray(self.values, dtype=np.float64)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")
        if vals.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix")
        if not np.allclose(vals, vals.T, atol=1e-12, rtol=0.0):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(vals) != 0.0):
            raise ValueError("diagonal must be zero")
        if vals.min() < 0.0:
            raise ValueError("distances must be nonnegative")
        vals = (vals + vals.T) / 2.0
        vals.setflags(write=False)
        self.values = vals


@dataclass(eq=False)
class Dendrogram:
    """Binary merge tree; ids 0..n-1 are leaves, n+i is the i-th merge."""

    merges: tuple[tuple[int, int, float], ...]
    leaf_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.leaf_labels = tuple(str(x) for x in self.leaf_labels)
        self.merges = tuple((int(a), int(b), float(h)) for a, b, h in self.merges)
        if len(self.leaf_labels) < 2:
            raise ValueError("a dendrogram needs at least two leaves")
        if len(self.merges) != len(self.leaf_labels) - 1:
            raise ValueError("a binary dendrogram needs exactly n - 1 merges")

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)


def complete_linkage(dist: DistanceMatrix) -> Dendrogram:
    """Agglomerate by minimal maximum pairwise distance.

    The pair with the smallest (distance, id, id) triple merges first, so
    equal distances resolve deterministically.
    """
    n = len(dist.labels)
    if n < 2:
        raise ValueError("need at least two labels to cluster")
    d: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d[(i, j)] = float(dist.values[i, j])
    active = list(range(n))
    merges: list[tuple[int, int, float]] = []
    for step in range(n - 1):
        best = min((dist_ij, i, j) for (i, j), dist_ij in d.items())
        h, i, j = best
        new = n + step
        merges.append((i, j, h))
        active.remove(i)
        active.remove(j)
        for k in active:
            d_ik = d.pop((min(i, k), max(i, k)))
            d_jk = d.pop((min(j, k), max(j, k)))
            d[(k, new)] = max(d_ik, d_jk)
        del d[(i, j)]
        active.append(new)
    return Dendrogram(tuple(merges), dist.labels)


def _fmt(x: float) -> str:
    return fmt_float(x).removesuffix(".0")


_NEWICK_UNSAFE = set("(),:;\t\n ")


def check_newick_label(label: str) -> None:
    """Raise ValueError if ``label`` cannot be a Newick leaf name."""
    if set(label) & _NEWICK_UNSAFE:
        raise ValueError(f"label {label!r} contains newick delimiters")


def to_newick(dend: Dendrogram) -> str:
    """Serialize with branch lengths equal to merge-height differences.

    One pass in merge order builds each subtree's text from its children's,
    which come earlier, then frees theirs. Children print with the subtree
    containing the smallest leaf index first.
    """
    for label in dend.leaf_labels:
        check_newick_label(label)
    n = dend.n_leaves
    text = list(dend.leaf_labels)
    min_leaf = list(range(n))
    height = [0.0] * n
    for a, b, h in dend.merges:
        if min_leaf[b] < min_leaf[a]:
            a, b = b, a
        text.append(f"({text[a]}:{_fmt(h - height[a])},"
                    f"{text[b]}:{_fmt(h - height[b])})")
        text[a] = text[b] = ""
        min_leaf.append(min_leaf[a])
        height.append(h)
    return text[-1] + ";"


def from_newick(text: str) -> Dendrogram:
    """Parse a binary Newick tree produced by :func:`to_newick`.

    One scan, with a stack of the children read under each open ``(``. Leaf
    names may be empty or hold ``;``; internal nodes have no name. Leaves
    number in reading order; merges sort by (height, closing order).
    """
    s = text.strip()
    if not s.endswith(";"):
        raise ValueError("newick text must end with ';'")
    s = s[:-1]
    name_at, branch_at = re.compile(r"[^:,()]*").match, re.compile(r"[^,()]*").match
    leaves: list[str] = []
    # Leaf i is ref i; the k-th internal node to close is ref ~k == -1 - k.
    internals: list[tuple[int, int, float]] = []
    open_nodes: list[list[tuple[int, float]]] = []
    pos, ref = 0, None
    while True:
        if ref is None:  # a node starts here
            if s.startswith("(", pos):
                open_nodes.append([])
                pos += 1
                continue
            name = name_at(s, pos)
            leaves.append(name.group())
            pos = name.end()
            ref, height = len(leaves) - 1, 0.0
        branch = 0.0
        if s.startswith(":", pos):
            length = branch_at(s, pos + 1)
            branch, pos = float(length.group()), length.end()
        if not open_nodes:
            break
        children = open_nodes[-1]
        children.append((ref, height + branch))
        want = "," if len(children) == 1 else ")"
        if not s.startswith(want, pos):
            raise ValueError(f"expected {want!r} at {pos}")
        pos += 1
        if want == ",":
            ref = None
            continue
        open_nodes.pop()
        (a, top_a), (b, top_b) = children
        height = max(top_a, top_b)
        ref = ~len(internals)
        internals.append((a, b, height))
    if pos != len(s):
        raise ValueError(f"trailing newick content at {pos}")
    if len(leaves) < 2:
        raise ValueError("newick tree must contain at least two leaves")
    n = len(leaves)
    order = sorted(range(len(internals)), key=lambda k: (internals[k][2], k))
    # Ref ~k indexes this list from its end, where rank r of k puts n + r.
    ids = list(range(n)) + [0] * len(order)
    for rank, k in enumerate(order):
        ids[~k] = n + rank
    merges = tuple((ids[a], ids[b], h) for a, b, h in (internals[k] for k in order))
    return Dendrogram(merges, tuple(leaves))
