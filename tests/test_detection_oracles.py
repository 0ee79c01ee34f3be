"""Detection regression and cross-checks.

Golden digests pin detection output bit for bit per seed: each case hashes
the Louvain assignments for two seeds, their per-pass modularity histories
(exact float reprs), and the CNM assignment. The digests were recorded from
the earlier dict-based detectors, and any rewrite must reproduce them. The
graphs come from this file's own numpy sampler, so a change to csvnet's
generator cannot move them.

Slow reference detectors restate both algorithms plainly and must agree
exactly on small tie-heavy graphs and, for CNM, on generated ones; networkx
serves as an independent, test-only oracle for the modularity the two
detectors reach.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvnet.clustering import fast_greedy, louvain, louvain_with_history, modularity
from csvnet.graph import Graph, Partition


def planted(v: int, blocks: int, theta_w: float, theta_b: float, seed: int,
            drop: int = 0) -> Graph:
    """Bernoulli planted-partition graph over labels n0..n{v-1}; the first
    ``drop`` nodes of a seeded permutation keep no edges (isolated)."""
    rng = np.random.default_rng([seed, v])
    block = np.arange(v) * blocks // v
    iu, ju = np.triu_indices(v, k=1)
    prob = np.where(block[iu] == block[ju], theta_w, theta_b)
    alive = np.ones(v, dtype=bool)
    alive[rng.permutation(v)[:drop]] = False
    hit = (rng.random(iu.size) < prob) & alive[iu] & alive[ju]
    edges = np.stack([iu[hit], ju[hit]], axis=1)
    return Graph(tuple(f"n{i}" for i in range(v)), edges)


def islands() -> Graph:
    """Three components of different density plus four isolated nodes."""
    parts = [planted(40, 2, 0.4, 0.02, 71), planted(25, 1, 0.3, 0.0, 72),
             planted(6, 1, 1.0, 0.0, 73)]
    edges, offset = [], 0
    for g in parts:
        edges.append(g.edges + offset)
        offset += g.n_nodes
    n = offset + 4
    return Graph(tuple(f"n{i}" for i in range(n)), np.concatenate(edges))


CASES = {
    "sim3-v300-b0.01": lambda: planted(300, 8, 0.3, 0.01, 1),
    "sim3-v300-b0.2": lambda: planted(300, 8, 0.3, 0.2, 2),
    "sim3-v300-b0.3": lambda: planted(300, 8, 0.3, 0.3, 3),
    "sim3-v500-b0.01": lambda: planted(500, 8, 0.3, 0.01, 4),
    "sim3-v500-b0.2": lambda: planted(500, 8, 0.3, 0.2, 5),
    "sim3-v500-b0.3": lambda: planted(500, 8, 0.3, 0.3, 6),
    "compare-sparse": lambda: planted(400, 8, 0.15, 0.03, 7, drop=20),
    "islands": islands,
}

GOLDEN = {
    "sim3-v300-b0.01":
        "3be6d8fe2a6d07f02db154f0f159f726f45b9f5def80b9aaab3d3690b90e174b",
    "sim3-v300-b0.2":
        "07c42833c17522d1a12b0dab3fc84e4b1c6848d75cde270d71297d307a161de5",
    "sim3-v300-b0.3":
        "3b8980f719e2865931759abcbfdfab257709e0f09ac88c28c08f4f3e333db60c",
    "sim3-v500-b0.01":
        "67a55140bedf05216d05392af37661a4808991a464e24c6880b8b6181290f02b",
    "sim3-v500-b0.2":
        "a25503b41d64a5a52133a8dcfd6df90d4ee59792e2a0e56cc45bf221879d657d",
    "sim3-v500-b0.3":
        "0e3bcacb1756787dbfddc01d266e96eb73154f7baa194be8d6e4cd57a08ace26",
    "compare-sparse":
        "02380ddd6afef22cab2156679275d29a1bf84a358b2331377598f0bce00eab63",
    "islands":
        "5b5dec0ef53ec7dd6eefaeedf4534f998e23f4b45e0fd1b2eb6d1884d59ea23f",
}


def detection_digest(graph: Graph) -> str:
    h = hashlib.sha256()
    for seed in (0, 1):
        part, history = louvain_with_history(graph, seed)
        assert np.array_equal(louvain(graph, seed).assignment, part.assignment)
        h.update(part.assignment.astype("<i8").tobytes())
        h.update(repr([float(x) for x in history]).encode())
    h.update(fast_greedy(graph).assignment.astype("<i8").tobytes())
    return h.hexdigest()


def test_islands_shape():
    graph = islands()
    assert np.count_nonzero(graph.degrees == 0) >= 4
    assert graph.n_nodes == 75


@pytest.mark.parametrize("name", sorted(CASES))
def test_detection_matches_golden_digest(name):
    assert detection_digest(CASES[name]()) == GOLDEN[name]


# --- networkx oracle ----------------------------------------------------------

# Largest gap seen over nine planted draws was 0.0097; networkx's Louvain
# tends to sit slightly above ours, which this tolerance reports rather
# than closes.
NX_Q_TOLERANCE = 0.02


def _nx_graph(graph: Graph):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_edges_from(graph.edges.tolist())
    return nx, g


def _nx_modularity(nx, g, partition: Partition) -> float:
    comms = [set(np.flatnonzero(partition.assignment == c).tolist()) for c in range(partition.q)]
    return nx.community.modularity(g, comms)


@pytest.mark.parametrize("theta_b", [0.01, 0.1, 0.2])
def test_detectors_reach_networkx_modularity(theta_b):
    graph = planted(300, 8, 0.3, theta_b, 90)
    nx, g = _nx_graph(graph)
    ours_lv = louvain(graph, 0)
    ours_fg = fast_greedy(graph)
    q_lv = _nx_modularity(nx, g, ours_lv)
    q_fg = _nx_modularity(nx, g, ours_fg)
    assert q_lv == pytest.approx(modularity(graph, ours_lv), abs=1e-12)
    assert q_fg == pytest.approx(modularity(graph, ours_fg), abs=1e-12)
    ref_lv = nx.community.modularity(g, nx.community.louvain_communities(g, seed=0))
    ref_fg = nx.community.modularity(g, nx.community.greedy_modularity_communities(g))
    print(f"theta_b={theta_b}: louvain {q_lv:.4f} vs nx {ref_lv:.4f}, "
          f"fast_greedy {q_fg:.4f} vs nx {ref_fg:.4f}")
    assert abs(q_lv - ref_lv) <= NX_Q_TOLERANCE
    assert abs(q_fg - ref_fg) <= NX_Q_TOLERANCE


# --- reference detectors ------------------------------------------------------
#
# Plain restatements over dicts, small-graph only. CNM merges the connected
# pair of largest ΔQ found by scanning every pair; Louvain rescans each
# node's neighbourhood on every visit and aggregates with dicts. Both use the
# library's ΔQ and gain expressions, so results must match bit for bit.


def reference_fast_greedy(graph: Graph) -> list[int]:
    m = graph.n_edges
    n = graph.n_nodes
    deg = {i: float(graph.degrees[i]) for i in range(n)}
    links: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    for u, v in graph.edges.tolist():
        links[u][v] = links[v][u] = 1.0
    q_now = -float(np.sum((graph.degrees / (2.0 * m)) ** 2))
    best_q, best_step, merges = q_now, 0, []
    while True:
        pairs = [(a, b) for a in sorted(links) for b in sorted(links[a]) if a < b]
        if not pairs:
            break
        dq = {p: links[p[0]][p[1]] / m - deg[p[0]] * deg[p[1]] / (2.0 * m * m)
              for p in pairs}
        top = max(dq.values())
        a, b = min(p for p in pairs if dq[p] == top)
        merges.append((a, b))
        q_now += top
        if q_now > best_q + 1e-15:
            best_q, best_step = q_now, len(merges)
        deg[a] += deg.pop(b)
        for x, w in links.pop(b).items():
            del links[x][b]
            if x != a:
                links[a][x] = links[x][a] = links[a].get(x, 0.0) + w
    owner = list(range(n))
    for a, b in merges[:best_step]:
        for i in range(n):
            if owner[i] == b:
                owner[i] = a
    return owner


def reference_louvain(graph: Graph, seed) -> tuple[list[int], list[float]]:
    from csvnet._rng import derive_rng
    rng = derive_rng(seed)
    adj: list[dict[int, float]] = [{} for _ in range(graph.n_nodes)]
    for u, v in graph.edges.tolist():
        adj[u][v] = adj[v][u] = 1.0
    loop = [0.0] * graph.n_nodes
    two_w = 2.0 * graph.n_edges
    node_map = list(range(graph.n_nodes))
    history = []
    while True:
        n = len(adj)
        k = [sum(adj[i].values()) + loop[i] for i in range(n)]
        comm, tot, moved_any = list(range(n)), list(k), False
        while True:
            moves = 0
            for i in rng.permutation(n).tolist():
                ci, links = comm[i], {}
                for j, w in adj[i].items():
                    links[comm[j]] = links.get(comm[j], 0.0) + w
                tot[ci] -= k[i]
                best_c, best_gain = ci, links.get(ci, 0.0) - k[i] * tot[ci] / two_w
                for c in sorted(links):
                    gain = links[c] - k[i] * tot[c] / two_w
                    if c != ci and gain > best_gain + 1e-12:
                        best_gain, best_c = gain, c
                tot[best_c] += k[i]
                moves += best_c != ci
                comm[i] = best_c
            if moves == 0:
                break
            moved_any = True
        ids: dict[int, int] = {}
        dense = [ids.setdefault(c, len(ids)) for c in comm]
        inside, tot_c = np.zeros(len(ids)), np.zeros(len(ids))
        new_adj: list[dict[int, float]] = [{} for _ in ids]
        new_loop = [0.0] * len(ids)
        for i, ci in enumerate(dense):
            tot_c[ci] += k[i]
            inside[ci] += loop[i]
            new_loop[ci] += loop[i]
            for j, w in adj[i].items():
                cj = dense[j]
                if j > i and ci == cj:
                    inside[ci] += 2.0 * w
                    new_loop[ci] += 2.0 * w
                elif j > i:
                    new_adj[ci][cj] = new_adj[cj][ci] = new_adj[ci].get(cj, 0.0) + w
        history.append(float(np.sum(inside / two_w - (tot_c / two_w) ** 2)))
        node_map = [dense[c] for c in node_map]
        if not moved_any or len(ids) == n:
            break
        adj, loop = new_adj, new_loop
    return node_map, history


def _first_appearance(labels) -> list[int]:
    ids: dict[int, int] = {}
    return [ids.setdefault(int(c), len(ids)) for c in labels]


def tie_heavy_graphs() -> dict[str, Graph]:
    def make(n, edges):
        return Graph(tuple(f"n{i}" for i in range(n)), np.array(edges, dtype=np.int64))

    ring = make(12, [(i, (i + 1) % 12) for i in range(12)])
    grid = make(16, [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
                + [(r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(4)])
    k34 = make(7, [(i, j) for i in range(3) for j in range(3, 7)])
    cliques = make(15, [(i + o, j + o) for o in (0, 5, 10)
                        for i in range(5) for j in range(i + 1, 5)] + [(4, 5), (9, 10), (14, 0)])
    graphs = {"ring": ring, "grid": grid, "k34": k34, "clique-ring": cliques}
    rng = np.random.default_rng(2024)
    for t in range(8):
        n = int(rng.integers(8, 40))
        p = float(rng.choice([0.08, 0.2, 0.5]))
        iu, ju = np.triu_indices(n, k=1)
        hit = rng.random(iu.size) < p
        if hit.any():
            graphs[f"random-{t}"] = make(n, np.stack([iu[hit], ju[hit]], axis=1))
    return graphs


@pytest.mark.parametrize("name", sorted(tie_heavy_graphs()))
def test_detectors_match_reference(name):
    graph = tie_heavy_graphs()[name]
    assert fast_greedy(graph).assignment.tolist() == _first_appearance(
        reference_fast_greedy(graph))
    for seed in (0, 1, 2):
        part, history = louvain_with_history(graph, seed)
        ref_map, ref_history = reference_louvain(graph, seed)
        assert part.assignment.tolist() == _first_appearance(ref_map)
        assert history == ref_history


# --- CNM on generated graphs --------------------------------------------------
#
# fast_greedy rebuilds only the merged community's row and leaves the
# entries for the two merged communities in every other row, void, until
# they surface. Shared neighbours (where ΔQ to the merged community rises)
# and long merge chains are where that can go wrong, so the graphs mix
# dense random parts with cliques chained by single edges, separate
# components and isolated nodes.


@st.composite
def cnm_graphs(draw) -> Graph:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges: list[tuple[int, int]] = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(["dense", "cliques", "isolated"]),
                              min_size=1, max_size=4)):
        room = 40 - n
        if room < 2:
            break
        if kind == "dense":
            size = draw(st.integers(2, min(room, 16)))
            p = draw(st.sampled_from([0.3, 0.6, 0.9]))
            iu, ju = np.triu_indices(size, k=1)
            hit = rng.random(iu.size) < p
            edges += zip((iu[hit] + n).tolist(), (ju[hit] + n).tolist())
            n += size
        elif kind == "cliques":
            sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
            for k in sizes:
                if n + k > 40:
                    break
                if edges and edges[-1][1] == n - 1:
                    edges.append((n - 1, n))
                edges += [(n + i, n + j) for i in range(k) for j in range(i + 1, k)]
                n += k
        else:
            n += draw(st.integers(1, min(room, 3)))
    if not edges:
        edges, n = [(n, n + 1)], n + 2
    # Relabel so tie-breaks on ids meet every order of parts.
    perm = rng.permutation(n)
    return Graph(tuple(f"n{i}" for i in range(n)),
                 perm[np.array(edges, dtype=np.int64)])


@settings(max_examples=200, deadline=None)
@given(cnm_graphs())
def test_fast_greedy_matches_reference_on_generated_graphs(graph):
    assert fast_greedy(graph).assignment.tolist() == _first_appearance(
        reference_fast_greedy(graph))
