"""Hypothesis fuzz of the command line: generated argv and input files.

Every run must end in exit 0 or exit 2. Exit 2 comes with a message that
starts with ``error:`` and no traceback, and leaves the output directory as
it was: no new file, no ``.partial-*`` file, no file replaced. A simulate
run whose every drawn value is valid must exit 0 and write the whole table.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csvnet.cli import main

_NODES = st.sampled_from(["a", "b", "c", "d", "e", "f", "n0", "n1"])
_FLOATS = st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5),
                    st.sampled_from([0.0, 1.0, float("nan"), float("inf")]))
_SEEDS = st.integers(-3, 2**65)


@st.composite
def edge_texts(draw) -> str:
    """Either two cliques of n-labelled nodes (so that graphs share labels
    and hold communities) or short fuzzed lines, some malformed."""
    if draw(st.booleans()):
        k = draw(st.integers(3, 8))
        offset = draw(st.integers(0, 2))
        lines = [f"n{offset + i}\tn{offset + j}"
                 for base in (0, k) for i in range(base, base + k)
                 for j in range(i + 1, base + k)]
    else:
        lines = draw(st.lists(st.one_of(
            st.tuples(_NODES, _NODES).map("\t".join),
            st.sampled_from(["", "# comment", "a b c", "x", "\ufeffa b"]),
        ), max_size=12))
    return "\n".join(lines) + "\n"


def _record_labels(text: str) -> list[str]:
    labels: dict[str, None] = {}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) == 2 and not tokens[0].startswith("#"):
            labels.update(dict.fromkeys(tokens))
    return list(labels)


@st.composite
def partition_texts(draw, graph_text: str) -> str:
    """A partition of the graph's labels, or one with a line missing, an
    unknown label, a repeated node or a malformed line."""
    lines = [f"{lab}\t{draw(st.sampled_from('xyz'))}"
             for lab in _record_labels(graph_text)]
    flaw = draw(st.sampled_from(["none"] * 4 + ["drop", "unknown", "repeat", "bad"]))
    if flaw == "drop" and lines:
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    elif flaw == "unknown":
        lines.append("zz\tx")
    elif flaw == "repeat" and lines:
        lines.append(lines[0])
    elif flaw == "bad":
        lines.append("a b c")
    return "\n".join(lines) + "\n"


_CONFIG_VALUES = st.one_of(st.integers(-2, 40), _FLOATS, st.none(), st.booleans(),
                           st.sampled_from(["uniform", "powerlaw", "x"]),
                           st.lists(st.integers(0, 3), max_size=2))
_CONFIG_DICTS = st.dictionaries(
    st.sampled_from(["v", "blocks", "theta_within", "theta_between", "weight_mode",
                     "seed", "vertices"]),
    _CONFIG_VALUES, max_size=3).map(json.dumps)
_CONFIGS = st.one_of(_CONFIG_DICTS, _CONFIG_DICTS,
                     st.sampled_from(["[1, 2]", "[[1]]", "3", "null", "{", ""]))


def _optional(draw, flag: str, values) -> list[str]:
    # One token, so that argparse never reads a value such as -1e-9 as a flag.
    return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []


def _targets(out: Path):
    return st.sampled_from([str(out / "new.tsv")] * 3 + [str(out / "old.tsv")] * 2
                           + [str(out / "adir"), str(out / "nodir" / "x.tsv"),
                              str(out / "old.tsv" / "x.tsv")])


def _argv(draw, inp: Path, out: Path) -> list[str]:
    graphs = [str(inp / "g1.tsv"), str(inp / "g2.tsv"), str(inp / "missing.tsv")]
    targets = _targets(out)
    command = draw(st.sampled_from(["validate", "cluster", "generate", "compare"]))
    if command == "validate":
        argv = ["validate", draw(st.sampled_from(graphs[:1] * 3 + graphs[1:])),
                draw(st.sampled_from([str(inp / "p.tsv")] * 3 + graphs[:1]))]
        argv += _optional(draw, "--alpha", _FLOATS)
        argv += ["--directed"] if draw(st.booleans()) else []
        argv += _optional(draw, "--format", st.sampled_from(["json", "tsv"]))
    elif command == "cluster":
        argv = ["cluster", draw(st.sampled_from(graphs[:1] * 3 + graphs[1:]))]
        argv += _optional(draw, "--algorithm", st.sampled_from(["louvain", "fast_greedy"]))
        argv += _optional(draw, "--seed", _SEEDS)
    elif command == "generate":
        argv = ["generate", f"--v={draw(st.integers(8, 40) | st.integers(-2, 40))}",
                "--out-graph", draw(targets), "--out-partition", draw(targets)]
        argv += _optional(draw, "--blocks", st.integers(-1, 5))
        argv += _optional(draw, "--theta-within", _FLOATS)
        argv += _optional(draw, "--theta-between", _FLOATS)
        argv += _optional(draw, "--weight-mode", st.sampled_from(["uniform", "powerlaw"]))
        argv += _optional(draw, "--seed", _SEEDS)
        argv += ["--config", str(inp / "config.json")] if draw(st.booleans()) else []
        return argv
    else:
        n_graphs = draw(st.sampled_from([1, 2, 2, 3]))
        argv = ["compare", *(draw(st.sampled_from(graphs[:2] * 3 + graphs[2:]))
                             for _ in range(n_graphs))]
        argv += _optional(draw, "--alpha", _FLOATS)
        argv += _optional(draw, "--min-size", st.integers(-1, 5))
        argv += _optional(draw, "--seed", _SEEDS)
        argv += ["--wcsv"] if draw(st.booleans()) else []
        return argv + ["--out-dir", draw(st.sampled_from([
            str(out / "cmp"), str(out / "cmp"), str(out / "adir"), str(out / "old.tsv"),
            str(out / "old.tsv" / "cmp")]))]
    return argv + ["--out", draw(targets)]


# Mostly valid rates; two draws from one list are sometimes a repeat.
_RATES = st.sampled_from([0.0, 0.05, 0.3, 1.0] * 4 + [float("nan"), -0.1, 1.5])
# study -> (its rate flags, flags that only other studies take)
_STUDIES = {
    "sim1": (["--grid"], ["--levels", "--degradation-grid", "--algorithms"]),
    "sim2": (["--levels", "--degradation-grid"], ["--grid", "--algorithms"]),
    "sim3": (["--levels"], ["--grid", "--degradation-grid"]),
}
SIM_HEADER = ("sim_id\treplicate\tv\ttheta_between\tdegradation_q\talgorithm\t"
              "modularity\tucsv\twcsv\tseed")


def _simulate_argv(draw, inp: Path, out: Path) -> tuple[list[str], int | None]:
    """A toy-size simulate run, and its row count when every drawn value is
    valid (None when it may exit 2). ext.tsv covers n0..n11, so it is valid
    only at v=12. The simplest draw, which Hypothesis tries first, is sim3 at
    v=8 and rate 0.0: one node per planted block, so every graph is edgeless."""
    sim = draw(st.sampled_from(["sim3", "sim1", "sim2"]))
    rate_flags, foreign = _STUDIES[sim]
    v = draw(st.sampled_from([*range(8, 25)] * 2 + [*range(8)]))
    replicates = draw(st.sampled_from([1, 2] * 3 + [0]))
    argv = ["simulate", sim, f"--v={v}", f"--replicates={replicates}"]
    valid, rows = v >= 8 and replicates >= 1, replicates
    for flag in rate_flags:
        rates = draw(st.lists(_RATES, min_size=1, max_size=2))
        argv += [flag, *map(str, rates)]
        valid &= len(set(rates)) == len(rates) and all(0.0 <= x <= 1.0 for x in rates)
        rows *= len(rates)
    if sim == "sim3":
        algorithms = ["louvain", "fast_greedy"]
        if draw(st.booleans()):
            ext, missing = f"external:{inp / 'ext.tsv'}", f"external:{inp / 'missing.tsv'}"
            algorithms = draw(st.lists(st.sampled_from(
                ["louvain", "fast_greedy", ext, missing]), min_size=1, max_size=2))
            argv += ["--algorithms", *algorithms]
            valid &= len(set(algorithms)) == len(algorithms) and missing not in algorithms \
                and (v == 12 or ext not in algorithms)
        rows *= len(algorithms)
    if draw(st.integers(0, 2)) == 2:
        alpha = draw(_FLOATS)
        argv.append(f"--alpha={alpha}")
        valid &= 0.0 < alpha < 1.0
    if draw(st.integers(0, 7)) == 7:
        argv += [draw(st.sampled_from(foreign)), "0.5"]
        valid = False
    argv += _optional(draw, "--seed", _SEEDS)
    target = draw(_targets(out))
    valid &= target in (str(out / "new.tsv"), str(out / "old.tsv"))
    return argv + ["--out", target], rows if valid else None


def _snapshot(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@contextlib.contextmanager
def _dirs(draw):
    """Input and output directories; the output holds a file, a directory and,
    sometimes, a directory where a compare output would go."""
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in"), Path(tmp, "out")
        inp.mkdir()
        (out / "adir").mkdir(parents=True)
        if draw(st.booleans()):
            (out / "adir" / "D.tsv").mkdir()
        (out / "old.tsv").write_text("old\n", encoding="utf-8")
        yield inp, out


def _run(argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and stderr of ``argv``, checked against the exit contract."""
    before = _snapshot(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    after = _snapshot(out)
    assert not [name for name in after if ".partial-" in name], (argv, after)
    if code == 2:
        assert err.startswith("error:"), (argv, err)
        assert after == before, argv
    return code, err


_FUZZ = settings(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@settings(_FUZZ, max_examples=500)
@given(st.data())
def test_cli_exits_0_or_2_and_leaves_no_trace_on_error(data):
    draw = data.draw
    with _dirs(draw) as (inp, out):
        g1 = draw(edge_texts())
        (inp / "g1.tsv").write_text(g1, encoding="utf-8")
        (inp / "g2.tsv").write_text(draw(edge_texts()), encoding="utf-8")
        (inp / "p.tsv").write_text(draw(partition_texts(g1)), encoding="utf-8")
        (inp / "config.json").write_text(draw(_CONFIGS), encoding="utf-8")
        _run(_argv(draw, inp, out), out)


# A test of its own, so that simulate gets a fifth of the 625 examples: in one
# mixed draw Hypothesis skips repeated draws, and the short simulate draws
# repeat most.
@settings(_FUZZ, max_examples=125)
@given(st.data())
def test_simulate_exits_0_on_valid_values_else_2(data):
    draw = data.draw
    with _dirs(draw) as (inp, out):
        (inp / "ext.tsv").write_text("".join(f"n{i}\tc{i % 3}\n" for i in range(12)),
                                     encoding="utf-8")
        argv, rows = _simulate_argv(draw, inp, out)
        code, err = _run(argv, out)
        if rows is not None:
            assert code == 0, (argv, err)
            lines = Path(argv[-1]).read_text(encoding="utf-8").splitlines()
            assert lines[:2] == ["# csvnet simulation schema_version=1", SIM_HEADER]
            assert len(lines) == 2 + rows, argv
            for line in lines[2:]:
                ucsv, wcsv = map(float, line.split("\t")[7:9])
                assert 0.0 <= wcsv <= ucsv <= 1.0, (argv, line)
