"""End-to-end acceptance checks.

Each test covers one numbered release criterion, prints a single
machine-readable [PASS]/[FAIL] line with the measured quantities, and then
asserts. Seeds are fixed at the criterion number so reruns are exact.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from oracles import bh_reference, linkage_reference
from csvnet.cli import main
from csvnet.clustering import (complete_linkage, DistanceMatrix, fast_greedy,
                               louvain, modularity)
from csvnet.compare import compare_all
from csvnet.dcsbm import (equal_block_sizes, normalize_weights,
                          planted_partition, sample_graph, theta_matrix)
from csvnet.graph import Graph, Partition
from csvnet.simharness import run_sim1, run_sim2, run_sim3
from csvnet.stats import bh_adjust, mid_p_family
from csvnet._rng import derive_rng


def _verdict(num: int, slug: str, ok: bool, detail: str, elapsed: float,
             limit: float | None = None) -> None:
    in_time = limit is None or elapsed < limit
    status = "PASS" if ok and in_time else "FAIL"
    budget = f" < {limit:.0f}s" if limit is not None else ""
    print(f"[{status}] criterion {num} ({slug}): {detail}; {elapsed:.1f}s{budget}")
    assert ok, f"criterion {num} ({slug}): {detail}"
    assert in_time, f"criterion {num} ({slug}): {elapsed:.1f}s over budget{budget}"


def _median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def test_criterion_01_midp_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n_pop = int(rng.integers(1, 61))
        k_succ = int(rng.integers(0, n_pop + 1))
        n_draw = int(rng.integers(0, n_pop + 1))
        lo, hi = max(0, n_draw + k_succ - n_pop), min(n_draw, k_succ)
        xs = np.arange(lo, hi + 1)
        got_upper = mid_p_family(xs, n_pop, k_succ, n_draw, True).tolist()
        got_lower = mid_p_family(xs, n_pop, k_succ, n_draw, False).tolist()
        denom = math.comb(n_pop, n_draw)
        pmf = [math.comb(k_succ, x) * math.comb(n_pop - k_succ, n_draw - x)
               for x in range(lo, hi + 1)]
        suffix = [0] * (len(pmf) + 1)
        for i in range(len(pmf) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + pmf[i]
        below = 0
        for i in range(len(pmf)):
            upper = Fraction(pmf[i] + 2 * suffix[i + 1], 2 * denom)
            lower = Fraction(pmf[i] + 2 * below, 2 * denom)
            worst = max(worst,
                        abs(got_upper[i] - float(upper)),
                        abs(got_lower[i] - float(lower)))
            below += pmf[i]
    elapsed = time.perf_counter() - start
    _verdict(1, "mid-p oracle", worst < 1e-12,
             f"max |delta| {worst:.2e} over 200 triples", elapsed, 1.0)


def test_criterion_02_bh_matches_stepup_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    mismatches = 0
    for case in range(200):
        m = int(rng.integers(1, 51))
        if case % 3 == 0:
            p = rng.uniform(0.0, 1.0, size=m)
        elif case % 3 == 1:
            p = rng.choice([0.001, 0.01, 0.04, 0.2, 0.8], size=m)
        else:
            p = 10.0 ** rng.uniform(-8.0, 0.0, size=m)
        if not np.array_equal(bh_adjust(p), np.array(bh_reference(list(p)))):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(2, "BH oracle", mismatches == 0,
             f"{mismatches} mismatching vectors of 200", elapsed, 1.0)


def test_criterion_03_planted_structure_detection():
    start = time.perf_counter()
    rows = run_sim1(v_list=(100, 500, 1000), theta_between_grid=(0.003,),
                    replicates=20, seed=3)
    by_v = {v: [r.ucsv for r in rows if r.v == v] for v in (100, 500, 1000)}
    frac_full = float(np.mean(np.asarray(by_v[500]) == 1.0))
    med_small, med_large = _median(by_v[100]), _median(by_v[1000])
    ok = frac_full >= 0.95 and med_small < med_large
    elapsed = time.perf_counter() - start
    _verdict(3, "planted detection", ok,
             f"ucsv=1 in {frac_full:.0%} at v=500; median {med_small:.3f} "
             f"(v=100) vs {med_large:.3f} (v=1000)", elapsed, 120.0)


def test_criterion_04_low_modularity_refusal():
    start = time.perf_counter()
    rows = run_sim2(theta_between_levels=(0.3,), degradation_grid=(0.0,),
                    replicates=20, seed=4, v=500)
    med = _median(r.ucsv for r in rows)
    elapsed = time.perf_counter() - start
    _verdict(4, "low-modularity refusal", med <= 0.15,
             f"median ucsv {med:.3f} at theta_between = theta_within = 0.3",
             elapsed, 60.0)


def test_criterion_05_degradation_robustness():
    start = time.perf_counter()
    rows = run_sim2(theta_between_levels=(0.01,), replicates=20, seed=5, v=500)
    grid = sorted({r.degradation_q for r in rows})
    medians = [_median(r.ucsv for r in rows if r.degradation_q == q)
               for q in grid]
    med_02 = medians[grid.index(0.2)]
    med_08 = medians[grid.index(0.8)]
    steps = [b - a for a, b in zip(medians, medians[1:])]
    max_rise = max(steps)
    k = steps.index(max_rise)
    ok = med_02 >= 0.9 and med_08 <= 0.2 and max_rise <= 0.05
    elapsed = time.perf_counter() - start
    _verdict(5, "degradation robustness", ok,
             f"median {med_02:.3f} at q=0.2, {med_08:.3f} at q=0.8, "
             f"max rise {max_rise:.3f} at q {grid[k]}->{grid[k + 1]} (slack 0.05)",
             elapsed, 180.0)


def test_criterion_06_algorithm_comparison():
    start = time.perf_counter()
    rows = run_sim3(theta_between_levels=(0.2, 0.3), replicates=20,
                    algorithms=("louvain", "fast_greedy"), seed=6, v=500)
    gaps = []
    for level in (0.2, 0.3):
        med = {a: _median(r.ucsv for r in rows
                          if r.theta_between == level and r.algorithm == a)
               for a in ("louvain", "fast_greedy")}
        gaps.append((level, med["fast_greedy"], med["louvain"]))
    ok = all(fg <= lv for _, fg, lv in gaps)
    detail = ", ".join(f"theta={lvl}: fast_greedy {fg:.3f} vs louvain {lv:.3f}"
                       for lvl, fg, lv in gaps)
    elapsed = time.perf_counter() - start
    _verdict(6, "algorithm comparison", ok, detail, elapsed, 180.0)


def _planted_draw(theta_between: float, assignment: np.ndarray, rng) -> Graph:
    theta = theta_matrix(0.3, theta_between, int(assignment.max()) + 1)
    return sample_graph(assignment, theta, np.ones(assignment.size), rng)


def test_criterion_07_network_comparison_sanity():
    start = time.perf_counter()
    planted = planted_partition(equal_block_sizes(500, 8))
    base = _planted_draw(0.01, planted.assignment, derive_rng(7, 0))
    result = compare_all([("left", base), ("right", base)], seed=7)
    identical_ok = (np.all(result.r_matrix == 1.0)
                    and np.all(result.d_matrix.values == 0.0))
    same, different, errors = [], [], []
    for rep in range(20):
        g1 = _planted_draw(0.01, planted.assignment, derive_rng(7, rep, 1))
        g2 = _planted_draw(0.01, planted.assignment, derive_rng(7, rep, 2))
        shuffled = planted.assignment[
            derive_rng(7, rep, 3).permutation(500)]
        g3 = _planted_draw(0.01, shuffled, derive_rng(7, rep, 4))
        for out, g in ((same, g2), (different, g3)):
            (pair,) = compare_all([("g1", g1), ("g2", g)], seed=700 + rep).per_pair
            out.extend((pair.r_ij, pair.r_ji))
            if pair.error is not None:
                errors.append(pair.error)
    med_same, med_diff = _median(same), _median(different)
    ok = identical_ok and not errors and med_same >= 0.8 and med_diff <= 0.2
    elapsed = time.perf_counter() - start
    _verdict(7, "network comparison", ok,
             f"identical R=1/D=0 {identical_ok}; same-block median R "
             f"{med_same:.3f}, different-block {med_diff:.3f}"
             + (f"; pair errors {errors}" if errors else ""), elapsed, 180.0)


def test_criterion_08_clustering_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    labels = tuple("abcdef")
    linkage_fail = 0
    for case in range(100):
        raw = rng.uniform(1.0, 10.0, size=(6, 6))
        if case % 2:
            raw = np.round(raw, 1)
        values = np.triu(raw, 1)
        values = values + values.T
        dend = complete_linkage(DistanceMatrix(labels, values))
        if tuple(tuple(m) for m in dend.merges) != tuple(linkage_reference(values)):
            linkage_fail += 1

    triangles = Graph(tuple("abcdef"),
                      np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]))
    expected = {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def communities(p: Partition) -> set[frozenset[int]]:
        return {frozenset(np.flatnonzero(p.assignment == c).tolist())
                for c in range(p.q)}

    louvain_ok = communities(louvain(triangles, seed=8)) == expected
    greedy_ok = communities(fast_greedy(triangles)) == expected

    k5_edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k5_edges += [(i + 5, j + 5) for i, j in k5_edges]
    two_k5 = Graph(tuple(f"n{i}" for i in range(10)), np.array(k5_edges))
    q_value = modularity(two_k5, Partition([0] * 5 + [1] * 5, 2))
    q_ok = abs(q_value - 0.5) <= 1e-12

    ok = linkage_fail == 0 and louvain_ok and greedy_ok and q_ok
    elapsed = time.perf_counter() - start
    _verdict(8, "clustering correctness", ok,
             f"{linkage_fail} linkage mismatches of 100; triangles recovered "
             f"louvain={louvain_ok} fast_greedy={greedy_ok}; "
             f"two-K5 Q {q_value!r}", elapsed)


def test_criterion_09_generator_calibration():
    start = time.perf_counter()
    observed = 0
    pairs = 0
    sizes = equal_block_sizes(1000, 8)
    planted = planted_partition(sizes)
    theta = theta_matrix(0.3, 0.01, 8)
    for rep in range(20):
        graph = sample_graph(planted.assignment, theta, np.ones(1000),
                             derive_rng(9, rep, 1))
        a = planted.assignment
        observed += int(np.sum(a[graph.edges[:, 0]] == a[graph.edges[:, 1]]))
        pairs += sum(s * (s - 1) // 2 for s in sizes)
    density = observed / pairs
    se_density = math.sqrt(0.3 * 0.7 / pairs)
    z_density = abs(density - 0.3) / se_density

    block = Partition(np.zeros(300, dtype=int), 1)
    weights = normalize_weights(np.array([2.0] * 150 + [1.0] * 150), block)
    contrasts = []
    for rep in range(20):
        graph = sample_graph(block.assignment, np.array([[0.2]]), weights,
                             derive_rng(9, rep, 2))
        deg = graph.degrees
        contrasts.append(float(deg[:150].mean() - 2.0 * deg[150:].mean()))
    c = np.asarray(contrasts)
    se_c = c.std(ddof=1) / math.sqrt(c.size)
    z_contrast = abs(c.mean()) / se_c

    ok = z_density <= 3.0 and z_contrast <= 3.0
    elapsed = time.perf_counter() - start
    _verdict(9, "generator calibration", ok,
             f"within-block density {density:.4f} (|z| {z_density:.2f}); "
             f"doubling contrast {c.mean():+.3f} (|z| {z_contrast:.2f})",
             elapsed)


def _run_cli(argv: list[str]) -> None:
    code = main(argv)
    assert code == 0, f"csvnet {' '.join(argv)} exited {code}"


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    gen = ["generate", "--v", "60", "--blocks", "3", "--theta-within", "0.4",
           "--theta-between", "0.02"]
    graphs = []
    for tag, seed in (("a", 11), ("b", 12), ("c", 13)):
        out_graph = tmp_path / f"{tag}.tsv"
        out_part = tmp_path / f"{tag}_part.tsv"
        _run_cli(gen + ["--seed", str(seed), "--out-graph", str(out_graph),
                        "--out-partition", str(out_part)])
        graphs.append(out_graph)
    repeat_graph = tmp_path / "a_again.tsv"
    repeat_part = tmp_path / "a_again_part.tsv"
    _run_cli(gen + ["--seed", "11", "--out-graph", str(repeat_graph),
                    "--out-partition", str(repeat_part)])
    generate_ok = (repeat_graph.read_bytes() == graphs[0].read_bytes()
                   and repeat_part.read_bytes()
                   == (tmp_path / "a_part.tsv").read_bytes())

    reports = []
    for run in (1, 2):
        out = tmp_path / f"report{run}.tsv"
        _run_cli(["validate", str(graphs[0]), str(tmp_path / "a_part.tsv"),
                  "--format", "tsv", "--out", str(out)])
        reports.append(out.read_bytes())
    validate_ok = reports[0] == reports[1]

    parts = []
    for run in (1, 2):
        for algorithm in ("louvain", "fast_greedy"):
            out = tmp_path / f"cluster_{algorithm}_{run}.tsv"
            _run_cli(["cluster", str(graphs[0]), "--algorithm", algorithm,
                      "--seed", "5", "--out", str(out)])
        parts.append((tmp_path / f"cluster_louvain_{run}.tsv").read_bytes()
                     + (tmp_path / f"cluster_fast_greedy_{run}.tsv").read_bytes())
    cluster_ok = parts[0] == parts[1]

    compare_files = ("R.tsv", "S.tsv", "D.tsv", "dendrogram.nwk",
                     "summary.json")
    snapshots = []
    for run, threads in ((1, "1"), (2, "4"), (3, "2")):
        out_dir = tmp_path / f"cmp{run}"
        _run_cli(["compare", *map(str, graphs), "--seed", "3",
                  "--threads", threads, "--out-dir", str(out_dir)])
        snapshots.append(tuple((out_dir / f).read_bytes()
                               for f in compare_files))
    compare_ok = snapshots[0] == snapshots[1] == snapshots[2]

    sim_specs = {
        "sim1": ["--v", "80", "--grid", "0.0", "0.03", "--replicates", "2"],
        "sim2": ["--v", "80", "--levels", "0.05", "--degradation-grid",
                 "0.0", "0.5", "--replicates", "2"],
        "sim3": ["--v", "80", "--levels", "0.05", "--replicates", "2",
                 "--algorithms", "louvain", "fast_greedy"],
    }
    simulate_ok = True
    for sim, flags in sim_specs.items():
        outputs = []
        for run, threads in ((1, "1"), (2, "3")):
            out = tmp_path / f"{sim}_{run}.tsv"
            _run_cli(["simulate", sim, *flags, "--seed", "2",
                      "--threads", threads, "--out", str(out)])
            outputs.append(out.read_bytes())
        simulate_ok = simulate_ok and outputs[0] == outputs[1]

    ok = (generate_ok and validate_ok and cluster_ok and compare_ok
          and simulate_ok)
    elapsed = time.perf_counter() - start
    _verdict(10, "CLI determinism", ok,
             f"generate={generate_ok} validate={validate_ok} "
             f"cluster={cluster_ok} compare={compare_ok} "
             f"simulate={simulate_ok}", elapsed)
