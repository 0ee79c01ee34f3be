"""Hypothesis fuzz of the command line: generated argv and input files.

Every run must end in exit 0 or exit 2. Exit 2 comes with a message that
starts with ``error:`` and no traceback, and leaves the output directory as
it was: no new file, no ``.partial-*`` file, no file replaced.
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


def _argv(draw, inp: Path, out: Path) -> list[str]:
    graphs = [str(inp / "g1.tsv"), str(inp / "g2.tsv"), str(inp / "missing.tsv")]
    targets = st.sampled_from([str(out / "new.tsv")] * 3 + [str(out / "old.tsv")] * 2
                              + [str(out / "adir"), str(out / "nodir" / "x.tsv"),
                                 str(out / "old.tsv" / "x.tsv")])
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


def _snapshot(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_cli_exits_0_or_2_and_leaves_no_trace_on_error(data):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in"), Path(tmp, "out")
        inp.mkdir()
        (out / "adir").mkdir(parents=True)
        if draw(st.booleans()):
            (out / "adir" / "D.tsv").mkdir()
        (out / "old.tsv").write_text("old\n", encoding="utf-8")
        g1 = draw(edge_texts())
        (inp / "g1.tsv").write_text(g1, encoding="utf-8")
        (inp / "g2.tsv").write_text(draw(edge_texts()), encoding="utf-8")
        (inp / "p.tsv").write_text(draw(partition_texts(g1)), encoding="utf-8")
        (inp / "config.json").write_text(draw(_CONFIGS), encoding="utf-8")
        argv = _argv(draw, inp, out)
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
