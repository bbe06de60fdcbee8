import contextlib
import copy
import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtail import bounds as boundsmod
from graphtail import cli
from graphtail import coupling as couplingmod
from graphtail import covers as coversmod
from graphtail import montecarlo as mcmod
from graphtail._simplex import CoverLp
from graphtail.bounds import ALL_METHODS
from graphtail.errors import InputError, VerificationError
from graphtail.graph import MAX_VERTICES


@pytest.fixture
def ex9_file(tmp_path):
    path = tmp_path / "ex9.json"
    path.write_text(json.dumps({"n": 9, "edges": [[1, 2], [1, 3], [2, 3]]}))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("3\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def p2xor_file(tmp_path):
    path = tmp_path / "p2xor.json"
    path.write_text(
        json.dumps(
            {
                "tree": {"n": 2, "edges": [[1, 2]]},
                "profile": ["1", "1"],
                "vertex_latents": {
                    "1": {"values": [0, 1], "probs": ["3/4", "1/4"]},
                    "2": {"values": [0, 1], "probs": ["3/4", "1/4"]},
                },
                "edge_latents": {"1-2": {"values": [0, 1], "probs": ["1/2", "1/2"]}},
                "emit": {"1": {"kind": "xor"}, "2": {"kind": "xor"}},
            }
        )
    )
    return str(path)


@pytest.fixture
def blockfactor_file(tmp_path):
    path = tmp_path / "bf.json"
    path.write_text(
        json.dumps(
            {
                "model": "block_factor",
                "n": 12,
                "k": 2,
                "dist": {"kind": "uniform", "lo": 0, "hi": 1},
                "combine": "max",
            }
        )
    )
    return str(path)


class TestParsing:
    def test_edge_list_text(self, tree_file):
        g = cli.load_graph(tree_file)
        assert g.edges == ((1, 2), (2, 3))

    def test_uniform_profile_spec(self):
        prof = cli.parse_profile_spec("uniform:2.5", 4)
        assert [float(c) for c in prof] == [2.5] * 4

    def test_short_list_rejected(self):
        with pytest.raises(InputError, match="profile has 2 coefficients for 3 vertices"):
            cli.parse_profile_spec("1,2", 3)

    def test_self_loop_message_distinct(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 1]]}))
        with pytest.raises(InputError, match="self-loop"):
            cli.load_graph(str(path))


class TestBoundsCommand:
    def test_example_graph_csv(self, ex9_file, capsys):
        code = cli.run(
            ["bounds", "--graph", ex9_file, "--c", "uniform:1", "--t", "3",
             "--methods", "janson,decomposable", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        by_method = {r["method"]: r for r in rows}
        assert float(by_method["janson"]["denominator"]) == 27.0
        assert by_method["janson"]["denominator_exact"] == "27"
        assert float(by_method["decomposable"]["denominator"]) <= 81 / 4
        assert rows[0]["method"] == "decomposable"  # best bound first

    def test_json_output_is_parseable(self, ex9_file, capsys):
        code = cli.run(["bounds", "--graph", ex9_file, "--t", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(r["method"] == "janson" for r in payload)

    def test_unknown_method_exit_1(self, ex9_file, capsys):
        assert cli.run(["bounds", "--graph", ex9_file, "--t", "3", "--methods", "magic"]) == 1

    def test_nonpositive_t_exit_1(self, ex9_file):
        assert cli.run(["bounds", "--graph", ex9_file, "--t", "0"]) == 1

    def test_missing_file_exit_1(self):
        assert cli.run(["bounds", "--graph", "/nonexistent.json", "--t", "1"]) == 1


class TestCoversCommand:
    def test_tree_chromatic_is_two(self, tree_file, capsys):
        assert cli.run(["covers", "chi-f", "--graph", tree_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective_exact"] == "2"

    def test_cap_exhaustion_exit_2(self, ex9_file, monkeypatch):
        monkeypatch.setattr(coversmod, "COLUMN_CAP", 3)
        assert cli.run(["covers", "chi-f", "--graph", ex9_file]) == 2

    def test_cap_is_not_an_option(self, ex9_file):
        assert cli.run(["covers", "chi-f", "--graph", ex9_file, "--cap", "3"]) == 1
        assert cli.run(["bounds", "--graph", ex9_file, "--t", "1", "--cap", "3"]) == 1

    def test_greedy_strategy_reports_upper_bound(self, ex9_file, capsys):
        code = cli.run(
            ["covers", "decomposable", "--graph", ex9_file, "--strategy", "greedy"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimality"] == "upper_bound"
        assert payload["objective"] >= 12 + 2 * 3.3166  # never below the exact optimum


class TestSimulateCommand:
    def test_requires_seed(self, blockfactor_file):
        assert cli.run(["simulate", "--spec", blockfactor_file, "--t", "1"]) == 1

    def test_validate_passes_and_is_deterministic(self, blockfactor_file, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--spec", blockfactor_file, "--t", "1,2", "--seed", "5",
                "--n", "60000", "--validate"]
        assert cli.run(args + ["--workers", "1", "--out", out1]) == 0
        assert cli.run(args + ["--workers", "8", "--out", out2]) == 0
        b1 = Path(out1).read_bytes()
        assert b1 == Path(out2).read_bytes()
        rows = list(csv.DictReader(io.StringIO(b1.decode())))
        assert all(r["verdict"] == "PASS" for r in rows)

    def test_undersized_sample_is_inconclusive_not_a_fail(self, tmp_path, capsys):
        # f <= 4, so P(f - Ef >= 5) = 0; without a hit in 64 samples the CI upper
        # limit stays above the bound, and that alone was a FAIL exiting 3
        path = tmp_path / "bf4.json"
        path.write_text(json.dumps({"model": "block_factor", "n": 4, "k": 2, "combine": "max",
                                    "dist": {"kind": "uniform", "lo": 0, "hi": 1}}))
        code = cli.run(["simulate", "--spec", str(path), "--validate", "--t", "5", "--n", "64",
                        "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [r["verdict"] for r in rows] == ["INCONCLUSIVE"] * 2
        assert all(float(r["ci_upper"]) > float(r["bound"]) for r in rows)

    def test_estimates_csv(self, blockfactor_file, capsys):
        code = cli.run(
            ["simulate", "--spec", blockfactor_file, "--t-grid", "0.5:2:4",
             "--seed", "8", "--n", "20000"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["t"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]

    def test_dependent_spec_fails_mcdiarmid_exit_3(self, tmp_path):
        n = 10
        spec = {
            "model": "latent_graph",
            "graph": {
                "n": n,
                "edges": [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)],
            },
            "latents": [
                {"scope": list(range(1, n + 1)), "dist": {"kind": "uniform", "lo": 0, "hi": 1}}
            ],
            "emit": "identity",
        }
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(spec))
        code = cli.run(
            ["simulate", "--spec", str(path), "--t", "3,4", "--seed", "3",
             "--n", "60000", "--validate", "--methods", "mcdiarmid"]
        )
        assert code == 3


class TestMoreCommands:
    def test_m_dependent_flag_plumbs_through(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 6, "edges": [[i, i + 1] for i in range(1, 6)]}))
        code = cli.run(
            ["bounds", "--graph", str(path), "--t", "2", "--m", "1",
             "--methods", "m_dependent,m_dependent_paulin", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {r["method"] for r in rows} == {"m_dependent", "m_dependent_paulin"}
        assert all(r["applicable"] == "yes" for r in rows)

    def test_covers_decomposable(self, ex9_file, capsys):
        code = cli.run(
            ["covers", "decomposable", "--graph", ex9_file, "--c", "uniform:1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective_form"] == "squared_cost"
        assert payload["objective"] <= 81 / 4
        assert payload["optimality"] == "exact"

    def test_worker_env_default_does_not_change_results(self, blockfactor_file, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "w1.csv"), str(tmp_path / "w4.csv")
        args = ["simulate", "--spec", blockfactor_file, "--t", "1", "--seed", "6",
                "--n", "30000"]
        monkeypatch.delenv("GRAPHTAIL_WORKERS", raising=False)
        assert cli.run(args + ["--out", out1]) == 0
        monkeypatch.setenv("GRAPHTAIL_WORKERS", "4")
        assert cli.run(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_simulate_json_format(self, blockfactor_file, capsys):
        code = cli.run(
            ["simulate", "--spec", blockfactor_file, "--t", "1", "--seed", "2",
             "--n", "20000", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["N"] == 20000 and 0 <= payload[0]["p_hat"] <= 1


class TestVerifyCommand:
    def test_coupling_exact_pass(self, p2xor_file, capsys):
        assert cli.run(["verify", "coupling", "--spec", p2xor_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["coupling_marginal_deviation"] == 0.0
        assert payload["dependency_deviation"] == 0.0

    def test_ternary_xor_path_n7_is_exact(self, tmp_path, capsys):
        # 4**7 points from 3**13 latent configurations, every deviation exactly 0
        n = 7
        eighths = [{"values": [0, 1, 2], "probs": probs}
                   for probs in (["1/8", "3/8", "4/8"], ["3/8", "2/8", "3/8"])]
        spec = {
            "tree": {"n": n, "edges": [[v, v + 1] for v in range(1, n)]},
            "vertex_latents": {str(v): eighths[0] for v in range(1, n + 1)},
            "edge_latents": {f"{v}-{v + 1}": eighths[1] for v in range(1, n)},
        }
        path = tmp_path / "xor7.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        deviations = ("dependency_deviation", "coupling_marginal_deviation", "independence_deviation")
        assert [payload[k] for k in deviations] == [0, 0, 0]
        assert payload["ok"] is True

    def test_dependency_against_wrong_graph_exit_3(self, p2xor_file, tmp_path, capsys):
        empty = tmp_path / "empty2.json"
        empty.write_text(json.dumps({"n": 2, "edges": []}))
        code = cli.run(
            ["verify", "dependency", "--spec", p2xor_file, "--graph", str(empty)]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["deviation"] > 0

    def test_missing_field_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"model": "block_factor", "n": 4}))  # no k, no dist
        assert cli.run(["simulate", "--spec", str(path), "--t", "1", "--seed", "1"]) == 1

    def test_declared_alphabets_checked(self, p2xor_file, tmp_path):
        data = json.loads(Path(p2xor_file).read_text())
        data["alphabets"] = [[0, 1], [0, 1]]
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        assert cli.run(["verify", "coupling", "--spec", str(good)]) == 0
        data["alphabets"] = [[0, 1, 2], [0, 1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli.run(["verify", "coupling", "--spec", str(bad)]) == 1

    def test_raw_pmf_form(self, tmp_path, capsys):
        raw = {
            "spaces": [[0, 1], [0, 1]],
            "tree": {"n": 2, "edges": [[1, 2]]},
            "profile": ["1", "1"],
            "pmf": [
                {"x": [0, 0], "p": "5/16"},
                {"x": [0, 1], "p": "3/16"},
                {"x": [1, 0], "p": "3/16"},
                {"x": [1, 1], "p": "5/16"},
            ],
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize(
        "spec",
        [
            {"spaces": [[0, 1]], "pmf": [{"x": [0], "p": "1/2"}, {"x": [1], "p": "1/2"}],
             "tree": {"n": 1, "edges": []}},
            {"tree": {"n": 1, "edges": []},
             "vertex_latents": {"1": {"values": [0, 1], "probs": ["1/2", "1/2"]}}},
        ],
        ids=["raw", "latent-tree"],
    )
    def test_one_vertex_tree_is_ok(self, spec, tmp_path, capsys):
        # a one-coordinate spread came out as a numpy integer, and ``ok`` as a
        # numpy bool that json cannot dump
        path = tmp_path / "one.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["difference_bound_excess"] == -1.0


_P2XOR = {
    "tree": {"n": 2, "edges": [[1, 2]]},
    "profile": ["1", "1"],
    "vertex_latents": {
        "1": {"values": [0, 1], "probs": ["3/4", "1/4"]},
        "2": {"values": [0, 1], "probs": ["3/4", "1/4"]},
    },
    "edge_latents": {"1-2": {"values": [0, 1], "probs": ["1/2", "1/2"]}},
    "emit": {"1": {"kind": "table", "map": {"0,0": 0, "0,1": 1, "1,0": 1, "1,1": 2}},
             "2": {"kind": "sum"}},
    "alphabets": [[0, 1, 2], [0, 1, 2]],
}
_FAIR_BIT = {"values": [0, 1], "probs": ["1/2", "1/2"]}
_P3XOR = {  # the path 1-2-3, every coordinate the xor of the latents it reads
    "tree": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "vertex_latents": {v: _FAIR_BIT for v in ("1", "2", "3")},
    "edge_latents": {"1-2": _FAIR_BIT, "2-3": _FAIR_BIT},
}
_RAW3 = {
    "spaces": [[0, 1], [0, 1], [0, 1]],
    "tree": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "pmf": [{"x": [a, b, c], "p": f"{1 + a + 2 * b + 4 * c}/36"}
            for a in (0, 1) for b in (0, 1) for c in (0, 1)],
}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9),
    st.floats(-3, 3, allow_nan=False), st.text("ab01,-/", max_size=4),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text("ab12-", max_size=3), _JSON_SCALARS, max_size=2),
)


def _json_paths(doc, prefix=()):
    """Every path to a value inside a JSON document, as tuples of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_json_paths(value, prefix + (key,)))
    return out


_BLOCK4 = {"model": "block_factor", "n": 4, "k": 2, "combine": "max",
           "dist": {"kind": "uniform", "lo": 0, "hi": 1}}
_LATENT2 = {
    "model": "latent_graph",
    "graph": {"n": 2, "edges": [[1, 2]]},
    "latents": [
        {"scope": [1, 2], "dist": {"kind": "bernoulli", "p": "1/2", "values": [0, 2]}},
        {"scope": [1],
         "dist": {"kind": "discrete", "values": [0, 1, 3], "probs": ["1/2", "1/4", "1/4"]}},
        {"scope": [2], "dist": {"kind": "uniform", "lo": "-1", "hi": 1}},
    ],
    "emit": {"1": {"kind": "max"}, "2": {"kind": "sum", "range": ["-1/2", 2]}},
}
_SIMULATE = ["simulate", "--t", "1", "--n", "64", "--seed", "1", "--spec"]


def _mutated(data, specs):
    """One of ``specs``, with one to three values replaced by random JSON or deleted."""
    spec = copy.deepcopy(data.draw(st.sampled_from(specs)))
    for _ in range(data.draw(st.integers(1, 3))):
        if not _json_paths(spec):  # every key deleted
            break
        path = data.draw(st.sampled_from(_json_paths(spec)))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    return spec


_EDGE_LIST_TOKENS = st.one_of(st.integers(-2, 31).map(str), st.text("0123456789 -ab,.{\t", max_size=5))


def _mutated_lines(data, lines):
    """An edge list's lines, with one to three replaced, deleted, inserted or re-tokenized."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["replace", "delete", "insert", "token"]))
        if op == "insert" or at == len(lines):
            lines.insert(at, data.draw(_EDGE_LIST_TOKENS))
        elif op == "delete":
            del lines[at]
        elif op == "replace":
            lines[at] = data.draw(_EDGE_LIST_TOKENS)
        else:
            tokens = lines[at].split() or [""]
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_EDGE_LIST_TOKENS)
            lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _assert_no_traceback(argv, spec, codes=(0, 1, 3)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in codes, (spec, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("input error:") and err.getvalue().count("\n") == 1


_HUGE = st.one_of(  # a mantissa times a power of ten up to 10**308, or an integer up to 10**400
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.7, 1.7),
              st.integers(0, 308) | st.integers(300, 308)),
    st.sampled_from([-1.7e308, 1.7e308]),
    st.integers(-10**400, 10**400),
)


def _is_numeric_value_leaf(spec, path) -> bool:
    """A number, or a number written as a string, inside a distribution or a declared range."""
    value = spec
    for key in path:
        value = value[key]
    if "dist" not in path and "range" not in path:
        return False
    if isinstance(value, str):
        return value.lstrip("-").replace("/", "").isdigit()
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_CORRELATED2 = {
    "spaces": [[0, 1], [0, 1]],
    "pmf": [{"x": [0, 0], "p": "1/8"}, {"x": [0, 1], "p": "3/8"},
            {"x": [1, 0], "p": "3/8"}, {"x": [1, 1], "p": "1/8"}],
}
_CORRELATED2_REPORT = (
    '{\n  "check": "dependency",\n  "deviation": 0.25,\n  "ok": false,\n'
    '  "worst_pair": [\n    [\n      1\n    ],\n    [\n      2\n    ]\n  ]\n}\n'
)


class TestRawPmfReading:
    """A raw pmf's points and probabilities: each refusal and reading keeps its exact output."""

    @pytest.mark.parametrize(
        "x, p, code, err",
        [
            ([True, 1], None, 1,
             "input error: a pmf entry's 'x' holds True, which is neither a string nor a finite number\n"),
            ([float("nan"), 1], None, 1,
             "input error: a pmf entry's 'x' holds nan, which is neither a string nor a finite number\n"),
            ([2, 1], None, 1, "input error: value 2 of coordinate 1 outside its alphabet\n"),
            ([0, 1, 1], None, 1, "input error: assignment (0, 1, 1) has wrong arity\n"),
            ([[0], 1], None, 1,
             "input error: a pmf entry's 'x' holds [0], which is neither a string nor a finite number\n"),
            (["0", 1], None, 1, "input error: value '0' of coordinate 1 outside its alphabet\n"),
            ([0.0, 1.0], None, 3, ""),  # integral floats are the alphabet's ints
            (None, "3/0", 1, "input error: cannot read '3/0' as an exact number\n"),
            (None, "-1/8", 1, "input error: negative probability -1/8 at (0, 0)\n"),
            (None, " 1/8", 3, ""),
            (None, "125" + "0" * 397 + "/1" + "0" * 400, 3, ""),  # 400 digits over 401: 1/8
            (None, "1" + "0" * 399, 1, f"input error: '1{'0' * 399}' is beyond the range of a float\n"),
        ],
        ids=["bool-x", "nan-x", "outside-x", "arity-x", "unhashable-x", "string-x", "float-x",
             "zero-denominator", "negative-p", "spaced-p", "long-p", "huge-p"],
    )
    def test_each_form_keeps_its_output(self, x, p, code, err, tmp_path, capsys):
        spec = copy.deepcopy(_CORRELATED2)
        if x is not None:
            spec["pmf"][1]["x"] = x
        if p is not None:
            spec["pmf"][0]["p"] = p
        path, graph = tmp_path / "spec.json", tmp_path / "edgeless.json"
        path.write_text(json.dumps(spec))
        graph.write_text(json.dumps({"n": 2, "edges": []}))
        assert cli.run(["verify", "dependency", "--spec", str(path), "--graph", str(graph)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (_CORRELATED2_REPORT if code == 3 else "", err)

    @pytest.mark.parametrize(
        "text",
        ["1/8", "007/0014", "0/5", "12/8", "\u0663/\u0664", "1_000/3", " 1/8", "+1/8", "-1/8",
         "1/-8", "1/2/3", "/3", "3/", "3/0", "1.5/2", "1e2/3", "0x1/2", ""],
    )
    def test_a_slash_b_reads_as_fraction_reads_it(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InputError, match="as an exact number"):
                cli._fraction_value(text)
        else:
            assert cli._fraction_value(text) == expected


class TestExitCodes:
    def test_stdout_closed_before_the_report_exits_1_quietly(self):
        # as `graphtail verify coupling ... | head -2` when head has exited:
        # the write to the closed pipe ended in a BrokenPipeError traceback
        spec = Path(__file__).resolve().parent / "data" / "golden" / "joint_tree5.json"
        src = Path(cli.__file__).resolve().parent.parent
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "graphtail.cli", "verify", "coupling", "--spec", str(spec)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_not_tree_dependent_coupling_prints_payload_exit_3(self, tmp_path, capsys):
        # all three coordinates equal: dependent along no path
        raw = {
            "spaces": [[0, 1]] * 3,
            "tree": {"n": 3, "edges": [[1, 2], [2, 3]]},
            "pmf": [{"x": [0, 0, 0], "p": "1/2"}, {"x": [1, 1, 1], "p": "1/2"}],
        }
        path = tmp_path / "equal3.json"
        path.write_text(json.dumps(raw))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["dependency_deviation"] == 0.5
        assert payload["worst_pair"] == [[1], [3]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["bounds", "--graph", "g.json"],  # missing --t
            ["verify", "dependency", "--spec", "j.json", "--tol", "0.6"],  # removed option
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert cli.run(argv) == 1
        assert "input error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_verification_error_exit_3_one_line(self, tree_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise VerificationError("certificate did not close")

        monkeypatch.setattr(cli.coversmod, "fractional_chromatic_number", broken)
        assert cli.run(["covers", "chi-f", "--graph", tree_file]) == 3
        assert capsys.readouterr().err == "verification error: certificate did not close\n"

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 3, "edges": [[1, 2.7]]},
            {"n": 3, "edges": [[True, 2]]},
            {"n": 2.9, "edges": [[1, 2]]},
            {"n": 3, "edges": [["a", 2]]},
            "3\na b\n",
        ],
    )
    def test_malformed_vertex_ids_in_graphs_exit_1(self, graph, tmp_path, capsys):
        path = tmp_path / ("g.json" if isinstance(graph, dict) else "g.txt")
        path.write_text(json.dumps(graph) if isinstance(graph, dict) else graph)
        assert cli.run(["covers", "chi-f", "--graph", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, key",
        [("vertex_latents", "x"), ("edge_latents", "1-2-3"), ("edge_latents", "1.5-2")],
    )
    def test_malformed_latent_keys_exit_1(self, p2xor_file, field, key, tmp_path, capsys):
        spec = json.loads(Path(p2xor_file).read_text())
        spec[field][key] = spec[field].pop(next(iter(spec[field])))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scope", [[1, 2.5], [True, 2], ["a", 2]])
    def test_malformed_latent_scopes_exit_1(self, scope, tmp_path, capsys):
        spec = _latent_spec(2, [[1, 2]])
        spec["latents"][-1]["scope"] = scope
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["simulate", "--spec", str(path), "--t", "1", "--n", "100", "--seed", "1"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


    @pytest.mark.parametrize("field, value", [("n", 2.9), ("n", True), ("k", 1.5), ("k", True)])
    def test_malformed_block_factor_sizes_exit_1(self, field, value, tmp_path, capsys):
        spec = {"model": "block_factor", "n": 4, "k": 2, "dist": {"kind": "uniform", "lo": 0, "hi": 1}}
        spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["simulate", "--spec", str(path), "--t", "1", "--n", "100", "--seed", "1"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            # mixed-type alphabet in a raw joint
            ({"spaces": [[0, "a"], [0, 1]], "pmf": [{"x": [0, 0], "p": 1}]},
             "alphabet values must be hashable and mutually ordered"),
            # table key that is not a list of integers
            ({**_P2XOR, "emit": {"1": {"kind": "table", "map": {"a,0": 1}}}},
             "emit table key 'a,0' is not comma-separated integers"),
            # table map given as a list
            ({**_P2XOR, "emit": {"1": {"kind": "table", "map": [[0, 0, 1]]}}},
             "table emit 'map' must be an object, got [[0, 0, 1]]"),
            # non-integer latent values under the default xor emit
            ({**_P2XOR, "emit": {}, "vertex_latents": {
                "1": {"values": ["a", "b"], "probs": ["1/2", "1/2"]},
                "2": {"values": [0, 1], "probs": ["1/2", "1/2"]},
            }}, "xor emit cannot combine the latent value 'a'"),
            # fields of the wrong JSON type, each named with the value it got
            ({**_P2XOR, "emit": []}, "'emit' must be an object, got []"),
            ({**_P2XOR, "emit": {"1": "xor"}}, "emit rule '1' must be an object, got 'xor'"),
            ({**_P2XOR, "vertex_latents": [1, 2]}, "'vertex_latents' must be an object, got [1, 2]"),
            ({**_P2XOR, "vertex_latents": {**_P2XOR["vertex_latents"], "1": [0, 1]}},
             "vertex latent '1' must be an object, got [0, 1]"),
            ({**_P2XOR, "edge_latents": [1]}, "'edge_latents' must be an object, got [1]"),
            ({"spaces": [[0, 1]], "pmf": {"x": [0], "p": 1}}, "'pmf' must be a list, got {'x': [0], 'p': 1}"),
            ({"spaces": [[0, 1]], "pmf": [[0, 1]]}, "a pmf entry must be an object, got [0, 1]"),
        ],
        ids=["mixed-alphabet", "table-key", "table-map-list", "xor-of-strings", "emit-list",
             "emit-rule-string", "vertex-latents-list", "vertex-latent-list", "edge-latents-list",
             "pmf-object", "pmf-entry-list"],
    )
    def test_malformed_joint_specs_exit_1(self, spec, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, field",
        [
            # a latent value with no probability was dropped, and the check passed
            ({**_P2XOR, "vertex_latents": {
                "1": {"values": [0, 1, 2], "probs": ["1/2", "1/2"]},
                "2": {"values": [0, 1], "probs": ["3/4", "1/4"]},
            }}, "vertex latent '1' has 3 'values' but 2 'probs'"),
            ({**_P2XOR, "edge_latents": {"1-2": {"values": [0, 1], "probs": ["1"]}}},
             "edge latent '1-2' has 2 'values' but 1 'probs'"),
            ({**_P2XOR, "edge_latents": {"1-2": {"values": "01", "probs": ["1/2", "1/2"]}}},
             "edge latent '1-2' 'values' must be a list"),
            # strings were split into one-character symbols, and the check passed
            ({"spaces": ["01", "01"], "tree": {"n": 2, "edges": [[1, 2]]},
              "pmf": [{"x": "00", "p": 1}]}, "each of 'spaces' must be a list"),
            ({**_RAW3, "pmf": [{"x": "000", "p": 1}]}, "a pmf entry's 'x' must be a list"),
            ({**_P2XOR, "alphabets": ["012", "012"]}, "each of 'alphabets' must be a list"),
        ],
    )
    def test_joint_spec_lists_are_read_as_lists(self, spec, field, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {field}")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({**_P2XOR, "vertex_latents": {**_P2XOR["vertex_latents"], "3": _FAIR_BIT}},
             "vertex latent for vertex 3 is outside the vertices 1..2"),
            ({**_P3XOR, "edge_latents": {**_P3XOR["edge_latents"], "1-3": _FAIR_BIT}},
             "edge latent for 1-3, which is not an edge of the tree"),
            ({**_P2XOR, "edge_latents": {**_P2XOR["edge_latents"], "2-1": _FAIR_BIT}},
             "edge latent for 2-1 repeats edge 1-2"),
            ({**_P2XOR, "emit": {**_P2XOR["emit"], "3": {"kind": "sum"}}},
             "emit rule for vertex '3' is outside the vertices 1..2"),
            # keys that read as one: the later latent replaced the earlier
            ({**_P2XOR, "vertex_latents": {**_P2XOR["vertex_latents"], "01": _FAIR_BIT}},
             "vertex latent keys '1' and '01' read as one key"),
            ({**_P2XOR, "edge_latents": {**_P2XOR["edge_latents"], "1,2": _FAIR_BIT}},
             "edge latent keys '1-2' and '1,2' read as one key"),
        ],
        ids=["vertex-latent", "non-edge-latent", "repeated-edge-latent", "emit-rule",
             "vertex-key-read-twice", "edge-key-read-twice"],
    )
    def test_stray_joint_spec_keys_exit_1(self, spec, message, tmp_path, capsys):
        # each was dropped without a word, and the check printed "ok": true
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("form", ["latent-tree", "raw"])
    @pytest.mark.parametrize("size", [2, 4])
    def test_profile_of_another_length_exits_1(self, form, size, tmp_path, capsys):
        # a shorter profile ended in an IndexError traceback, and a longer one lost its tail
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**(_P3XOR if form == "latent-tree" else _RAW3),
                                    "profile": ["1"] * size}))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: profile has {size} coefficients for 3 vertices\n"

    def test_raw_profile_without_a_tree_exits_1(self, tmp_path, capsys):
        # the profile was read and dropped: "ok": true, exit 0
        spec, graph = tmp_path / "spec.json", tmp_path / "graph.json"
        spec.write_text(json.dumps({**{k: v for k, v in _RAW3.items() if k != "tree"},
                                    "profile": ["1"] * 5}))
        graph.write_text(json.dumps(_RAW3["tree"]))
        assert cli.run(["verify", "dependency", "--spec", str(spec), "--graph", str(graph)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {spec}: a 'profile' needs a 'tree' to root\n"

    def test_sum_emit_adds_the_edges_to_the_vertex_latent(self, tmp_path):
        # float sums depend on their order: 0.1 + (0.2 + 0.7) != (0.1 + 0.2) + 0.7
        thirds = {"values": [0.1, 0.2, 0.7], "probs": ["1/3", "1/3", "1/3"]}
        halves = {"values": [0.2, 0.7], "probs": ["1/2", "1/2"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            **_P3XOR,
            "vertex_latents": {"1": thirds, "2": {"values": [0.1], "probs": [1]}, "3": thirds},
            "edge_latents": {"1-2": halves, "2-3": halves},
            "emit": {v: {"kind": "sum"} for v in ("1", "2", "3")},
        }))
        joint, _ = cli.load_joint_spec(str(path))
        leaf = {x + sum([e]) for x in thirds["values"] for e in halves["values"]}
        middle = {0.1 + sum([e, f]) for e in halves["values"] for f in halves["values"]}
        assert [set(space) for space in joint.spaces] == [leaf, middle, leaf]
        assert middle != {(0.1 + e) + f for e in halves["values"] for f in halves["values"]}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_joint_specs_never_end_in_a_traceback(self, data, tmp_path_factory):
        spec = _mutated(data, [_P2XOR, _RAW3])
        path = tmp_path_factory.mktemp("fuzz") / "spec.json"
        path.write_text(json.dumps(spec))
        what = data.draw(st.sampled_from(["coupling", "dependency"]))
        _assert_no_traceback(["verify", what, "--spec", str(path)], spec)

    @pytest.mark.parametrize(
        "spec",
        [
            # the top-level spec is a list
            [_BLOCK4],
            # 'dist' is a list, or a string
            {**_BLOCK4, "dist": [0, 1]},
            {**_BLOCK4, "dist": "uniform"},
            # a latent entry is a list
            {**_LATENT2, "latents": [[[1], {"kind": "uniform", "lo": 0, "hi": 1}]]},
            # 'latents' is an object
            {**_LATENT2, "latents": {"scope": [1, 2], "dist": _LATENT2["latents"][0]["dist"]}},
            # a scope is an int
            {**_LATENT2, "latents": [{**_LATENT2["latents"][0], "scope": 1}]},
            # an emit rule is a string, or 'emit' is an int
            {**_LATENT2, "emit": {"1": "sum"}},
            {**_LATENT2, "emit": 3},
            # a declared range with one end
            {**_LATENT2, "emit": {"1": {"kind": "sum", "range": [0]}}},
            # non-numeric Bernoulli and discrete values
            {**_BLOCK4, "dist": {"kind": "bernoulli", "p": "1/2", "values": ["a", "b"]}},
            {**_BLOCK4,
             "dist": {"kind": "discrete", "values": ["a", "b"], "probs": ["1/2", "1/2"]}},
            # discrete probabilities given as an int
            {**_BLOCK4, "dist": {"kind": "discrete", "values": [0], "probs": 1}},
            # an emit rule for a vertex the graph does not have
            {**_LATENT2, "emit": {"9": {"kind": "max"}}},
            # a uniform bound and a declared range end that no float holds
            {**_BLOCK4, "dist": {"kind": "uniform", "lo": 0, "hi": 10**400}},
            {**_LATENT2, "emit": {"1": {"kind": "sum", "range": [0, 10**400]}}},
        ],
    )
    def test_malformed_sampler_specs_exit_1(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run([*_SIMULATE, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, spec, message",
        [
            # denominators and part costs no float holds
            (["bounds", "--t", "1", "--c", "1e200,1"], None, "denominator is too large"),
            (["bounds", "--t", "1", "--c", "1e200,1", "--methods", "decomposable"], None,
             "too large for float part costs"),
            (["covers", "decomposable", "--c", "1e200,1"], None, "too large for float part costs"),
            (["simulate", "--validate", *_SIMULATE[1:]],
             {**_BLOCK4, "dist": {"kind": "uniform", "lo": 0, "hi": 1e200}}, "denominator is too large"),
            # a latent, and the coordinates' declared ranges, wider than a float
            (_SIMULATE, {**_BLOCK4, "dist": {"kind": "uniform", "lo": -1e308, "hi": 1e308}},
             "latents of vertex 1 span more than a float holds"),
            (_SIMULATE, {**_LATENT2, "emit": {"1": {"kind": "sum", "range": [-1e308, 1e308]}}},
             "coordinates span more than a float holds"),
        ],
    )
    def test_values_beyond_float_arithmetic_exit_1(self, argv, spec, message, tmp_path, capsys):
        if spec is None:
            path = tmp_path / "g2.json"
            path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
            argv = [*argv, "--graph", str(path)]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = [*argv, str(path)]  # each sampler argv ends in --spec
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_overflowing_denominator_is_listed_as_skipped(self, tmp_path, capsys):
        # McDiarmid's sum of c^2 = 1.62e308 is a float; Janson's twice that is not
        path = tmp_path / "g2.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
        argv = ["bounds", "--graph", str(path), "--c", "9e153,9e153", "--t", "1",
                "--include-mcdiarmid", "--format", "json"]
        assert cli.run(argv) == 0
        rows = {row["method"]: row for row in json.loads(capsys.readouterr().out)}
        assert rows["mcdiarmid"]["denominator"] == 1.62e308
        assert rows["mcdiarmid"]["applicable"] is True
        assert rows["janson"]["applicable"] is False
        assert rows["janson"]["reason"] == "overflow: the bound's denominator is too large for a float"

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_graph_file_exits_1(self, kind, tmp_path, capsys):
        path = tmp_path / "graph"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe3\n1 2\n")
        assert cli.run(["bounds", "--graph", str(path), "--t", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: cannot read") and captured.err.count("\n") == 1

    def test_unwritable_out_path_exits_1(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.run(["bounds", "--graph", str(graph), "--t", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot write") and captured.err.count("\n") == 1

    def test_integer_too_long_to_convert_exits_1(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"model": "block_factor", "n": ' + "1" * 5000 + ', "k": 2}')
        assert cli.run([*_SIMULATE, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and "malformed JSON" in captured.err

    def test_empty_declared_range_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LATENT2, "emit": {"1": {"kind": "sum", "range": [1, 0]}}}))
        assert cli.run([*_SIMULATE, str(path)]) == 1
        assert "declared range [1, 0] of vertex 1 is empty" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_sampler_specs_never_end_in_a_traceback(self, data, tmp_path_factory):
        spec = _mutated(data, [_BLOCK4, _LATENT2])
        path = tmp_path_factory.mktemp("fuzz") / "spec.json"
        path.write_text(json.dumps(spec))
        _assert_no_traceback([*_SIMULATE, str(path)], spec)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_huge_magnitudes_never_end_in_a_traceback(self, data, tmp_path_factory):
        spec = copy.deepcopy(data.draw(st.sampled_from([_BLOCK4, _LATENT2])))
        leaves = [path for path in _json_paths(spec) if _is_numeric_value_leaf(spec, path)]
        for leaf in data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3)):
            parent = spec
            for key in leaf[:-1]:
                parent = parent[key]
            parent[leaf[-1]] = data.draw(_HUGE)
        path = tmp_path_factory.mktemp("fuzz") / "spec.json"
        path.write_text(json.dumps(spec))
        # exit 3 is a FAIL verdict, which a tiny width can give: the bound falls below
        # the CI lower limit of the hits
        _assert_no_traceback(["simulate", "--validate", *_SIMULATE[1:], str(path)], spec)
        graph = tmp_path_factory.mktemp("fuzz") / "graph.json"
        graph.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
        coefficients = ",".join(repr(abs(data.draw(_HUGE))) for _ in range(3))
        method = data.draw(st.sampled_from(ALL_METHODS))
        argv = data.draw(st.sampled_from([
            ["bounds", "--t", "1", "--m", "1", "--include-mcdiarmid"],
            ["bounds", "--t", "1", "--m", "1", "--methods", method],
            ["covers", "decomposable"],
        ]))
        _assert_no_traceback([*argv, "--graph", str(graph), "--c", coefficients], coefficients, (0, 1))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_graph_files_never_end_in_a_traceback(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 30))
        pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40))
        edges = [[u, v] for u, v in pairs if u != v]
        path = tmp_path_factory.mktemp("fuzz") / "graph"
        if data.draw(st.booleans()):
            text = json.dumps(_mutated(data, [{"n": n, "edges": edges}]))
        else:
            text = _mutated_lines(data, [str(n)] + [f"{u} {v}" for u, v in edges])
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["bounds", "--graph", str(path), "--t", "1", "--methods", "mcdiarmid"])
        assert code in (0, 1), (text, err.getvalue())
        assert err.getvalue().count("\n") == code, (text, err.getvalue())


def _latent_spec(n, edges):
    uniform01 = {"kind": "uniform", "lo": 0, "hi": 1}
    return {
        "model": "latent_graph",
        "graph": {"n": n, "edges": edges},
        "latents": [{"scope": [v], "dist": uniform01} for v in range(1, n + 1)]
        + [{"scope": e, "dist": {"kind": "bernoulli", "p": "1/2"}} for e in edges],
        "emit": "sum",
    }


# Each spec with the methods whose structural precondition it fails.
VALIDATE_SPECS = {
    "block_factor": (
        {"model": "block_factor", "n": 8, "k": 2, "combine": "sum",
         "dist": {"kind": "uniform", "lo": 0, "hi": 1}},
        {"janson", "tree", "forest", "decomposable"},
    ),
    "single_tree": (
        _latent_spec(5, [[1, 2], [2, 3], [2, 4], [4, 5]]),
        {"m_dependent", "m_dependent_paulin"},
    ),
    "forest": (
        _latent_spec(5, [[1, 2], [3, 4]]),
        {"tree", "m_dependent", "m_dependent_paulin"},
    ),
    "cyclic": (
        _latent_spec(4, [[1, 2], [2, 3], [1, 3], [3, 4]]),
        {"tree", "forest", "m_dependent", "m_dependent_paulin"},
    ),
}


class TestValidateMethodMatrix:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("spec_name", sorted(VALIDATE_SPECS))
    def test_every_method_on_every_spec_kind(self, spec_name, method, tmp_path, capsys):
        spec, inapplicable = VALIDATE_SPECS[spec_name]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = cli.run(["simulate", "--spec", str(path), "--t", "1,2", "--seed", "4",
                        "--n", "2000", "--validate", "--methods", method])
        err = capsys.readouterr().err
        if method in inapplicable:
            assert code == 1
            assert err.startswith(f"input error: method {method!r} does not apply")
        else:
            assert code in (0, 3)
        assert err.count("\n") == (0 if code == 0 else 1)


class TestNonFiniteAndEmptyInputs:
    @pytest.mark.parametrize(
        "extra", [["--t", "nan"], ["--t", "inf"], ["--t", "-inf"], ["--t", "1", "--methods", ","]]
    )
    def test_bounds_non_finite_t_or_no_method_exit_1(self, ex9_file, extra, capsys):
        assert cli.run(["bounds", "--graph", ex9_file] + extra) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "nan"],
            ["--t", "1,nan", "--validate"],
            ["--t-grid", "0:inf:3", "--validate"],  # yields nan, inf, inf
            ["--t", "1", "--n", "0"],
            ["--t", "1", "--n", "-5", "--validate"],
            ["--t", "one"],
        ],
    )
    def test_simulate_bad_thresholds_or_samples_exit_1(self, blockfactor_file, extra, capsys):
        argv = ["simulate", "--spec", blockfactor_file, "--seed", "1"] + extra
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


    @pytest.mark.parametrize("validate", [[], ["--validate"]])
    def test_too_many_thresholds_exit_2_before_any_is_built(self, blockfactor_file, validate, capsys):
        base = ["simulate", "--spec", blockfactor_file, "--seed", "1", "--n", "8"] + validate
        # a grid of 10^12 thresholds is refused from its count, never built
        assert cli.run(base + ["--t-grid", "0:1:1000000000000"]) == 2
        assert cli.run(base + ["--t", ",".join(["1"] * 10_001)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "scale error: 1000000000000 thresholds asked for; at most 10000 per run\n"
            "scale error: 10001 thresholds asked for; at most 10000 per run\n"
        )
        assert cli.run(base + ["--t-grid", "0:1:10000"]) == 0


class TestWorkerAndSeedRange:
    @pytest.mark.parametrize(
        "extra, env",
        [
            (["--workers", "0"], None),
            (["--workers", "-3", "--validate"], None),
            ([], "0"),
            ([], "abc"),
            (["--seed", "-1"], None),
            (["--seed", str(2**64), "--validate"], None),
        ],
    )
    def test_out_of_range_exit_1(self, blockfactor_file, extra, env, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("GRAPHTAIL_WORKERS", raising=False)
        else:
            monkeypatch.setenv("GRAPHTAIL_WORKERS", env)
        argv = ["simulate", "--spec", blockfactor_file, "--t", "1", "--n", "1000"]
        if "--seed" not in extra:
            argv += ["--seed", "1"]
        assert cli.run(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra", [["--seed", "-1"], ["--t", "nan"], ["--workers", "0"], ["--n", "0"]]
    )
    def test_validate_checks_run_inputs_before_any_denominator(
        self, extra, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a denominator was solved before the inputs were checked")

        for name, method in boundsmod.METHODS.items():
            monkeypatch.setitem(boundsmod.METHODS, name, replace(method, denominator=unreachable))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_latent_spec(4, [[1, 2], [2, 3], [1, 3], [3, 4]])))
        argv = ["simulate", "--spec", str(path), "--validate", "--t", "1", "--n", "100",
                "--seed", "1", "--workers", "1"]
        assert cli.run(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    def test_validate_refuses_the_exact_mean_before_any_lp(self, tmp_path, monkeypatch, capsys):
        # vertex 1 reads 400 clamped Bernoulli(1/3) latents: its exact mean is past the cap
        rng = random.Random(16)
        pairs = [[u, v] for u in range(1, 17) for v in range(u + 1, 17)]
        spec = _latent_spec(16, sorted(rng.sample(pairs, 30)))
        spec["latents"] += [{"scope": [1], "dist": {"kind": "bernoulli", "p": "1/3"}}] * 400
        spec["emit"] = {"1": {"kind": "sum", "range": [0, 200]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        solves = []
        solve = CoverLp.solve
        monkeypatch.setattr(CoverLp, "solve", lambda self: solves.append(self) or solve(self))
        for extra in ([], ["--validate"]):
            argv = ["simulate", "--spec", str(path), "--t", "1", "--n", "100", "--seed", "1"]
            assert cli.run(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"scale error: the exact mean takes more than {mcmod.MEAN_TERM_CAP} steps,"
                " running out at vertex 1\n"
            )
        assert solves == []

    def test_worker_env_ignored_when_flag_given_or_not_simulating(
        self, blockfactor_file, ex9_file, monkeypatch
    ):
        monkeypatch.setenv("GRAPHTAIL_WORKERS", "abc")
        argv = ["simulate", "--spec", blockfactor_file, "--t", "1", "--n", "1000", "--seed", "1"]
        assert cli.run(argv + ["--workers", "2"]) == 0
        assert cli.run(["bounds", "--graph", ex9_file, "--t", "2"]) == 0

    def test_largest_seed_accepted(self, blockfactor_file, capsys):
        argv = ["simulate", "--spec", blockfactor_file, "--t", "1", "--n", "1000",
                "--seed", str(2**64 - 1), "--format", "json"]
        assert cli.run(argv) == 0
        assert json.loads(capsys.readouterr().out)[0]["seed"] == 2**64 - 1


_NOT_FINITE = [True, False, None, float("nan"), float("inf"), float("-inf")]


def _with_symbol(field, bad):
    """(argv, spec, the field's name in the error) with one symbol of ``field`` set to ``bad``."""
    values = {"values": [0, bad], "probs": ["1/2", "1/2"]}
    if field == "discrete":
        return _SIMULATE, {**_BLOCK4, "dist": {"kind": "discrete", **values}}, "discrete 'values'"
    if field == "bernoulli":
        spec = {**_BLOCK4, "dist": {"kind": "bernoulli", "p": "1/2", "values": [0, bad]}}
        return _SIMULATE, spec, "Bernoulli 'values'"
    verify = ["verify", "coupling", "--spec"]
    if field == "spaces":  # a coordinate that is always ``bad``
        pmf = [{"x": [bad, 0], "p": "1/2"}, {"x": [bad, 1], "p": "1/2"}]
        spec = {"spaces": [[bad], [0, 1]], "tree": {"n": 2, "edges": [[1, 2]]}, "pmf": pmf}
        return verify, spec, "each of 'spaces'"
    if field == "x":
        pmf = [{"x": [0, 0, bad], "p": "1/2"}, {"x": [1, 1, 1], "p": "1/2"}]
        return verify, {**_RAW3, "pmf": pmf}, "a pmf entry's 'x'"
    if field == "vertex-latent":
        latents = {**_P3XOR["vertex_latents"], "1": values}
        return verify, {**_P3XOR, "vertex_latents": latents}, "vertex latent '1' 'values'"
    if field == "edge-latent":
        latents = {**_P3XOR["edge_latents"], "1-2": values}
        return verify, {**_P3XOR, "edge_latents": latents}, "edge latent '1-2' 'values'"
    if field == "alphabets":
        return verify, {**_P2XOR, "alphabets": [[0, 1, 2], [0, 1, bad]]}, "each of 'alphabets'"
    table = {"kind": "table", "map": {"0,0": bad, "0,1": 1, "1,0": 1, "1,1": 2}}
    return verify, {**_P2XOR, "emit": {**_P2XOR["emit"], "1": table}}, "emit 'map'"


class TestFiniteNumbers:
    @pytest.mark.parametrize("bad", _NOT_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "field",
        ["discrete", "bernoulli", "spaces", "x", "vertex-latent", "edge-latent", "alphabets", "map"],
    )
    def test_symbols_that_are_no_finite_number_exit_1(self, field, bad, tmp_path, capsys):
        # true read as 1 and null, NaN or Infinity were kept as symbols, in every list
        # but Bernoulli 'values', which named the latent value instead of the field
        argv, spec, what = _with_symbol(field, bad)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: {what} holds {bad!r}, which is neither a string nor a finite number\n"
        )

    @pytest.mark.parametrize(
        "spec",
        [
            {"spaces": [[0, 1.5], [0, 1]], "tree": {"n": 2, "edges": [[1, 2]]},
             "pmf": [{"x": [a, b], "p": f"{1 + i + 2 * b}/10"}
                     for i, a in enumerate((0, 1.5)) for b in (0, 1)]},
            {**_P3XOR,
             "vertex_latents": {v: {"values": [0, 0.5], "probs": ["1/2", "1/2"]} for v in "123"},
             "edge_latents": {e: {"values": [0, 0.25], "probs": ["1/4", "3/4"]}
                              for e in ("1-2", "2-3")},
             "emit": {v: {"kind": "sum"} for v in "123"}},
        ],
        ids=["raw", "latent-tree-sum"],
    )
    def test_float_alphabets_get_the_difference_bound(self, spec, tmp_path, capsys):
        # a float alphabet was taken for a symbolic one, and "ok" printed with no bound checked
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference_bound_excess"] <= 0
        assert payload["ok"] is True

    @pytest.mark.parametrize(
        "kind, latent, edge, operands",
        [("sum", 1e308, 1e308, "(1e+308, 1e+308)"),
         ("xor", 2**1023, 2**1023 - 1, "(8.98846567431158e+307, 8.98846567431158e+307)")],
        ids=["sum", "xor"],
    )
    def test_emit_beyond_a_float_exits_1(self, kind, latent, edge, operands, tmp_path, capsys):
        # 1e308 + 1e308, or 2**1024 - 1, became a symbol no float holds, and the
        # difference bound was skipped as if the alphabet were symbolic
        def point(value):
            return {"values": [value], "probs": [1]}

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "tree": {"n": 2, "edges": [[1, 2]]},
            "vertex_latents": {"1": point(latent), "2": point(0)}, "edge_latents": {"1-2": point(edge)},
            "emit": {"1": {"kind": kind}, "2": {"kind": kind}},
        }))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {kind} emit of {operands} overflows a float\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--t", "1", "--methods", "tree,tree", "--graph"],
            ["bounds", "--t", "1", "--methods", "decomposable,janson,decomposable", "--graph"],
            ["simulate", "--validate", "--t", "1", "--n", "64", "--seed", "1",
             "--methods", "m_dependent,m_dependent", "--spec"],
        ],
    )
    def test_a_method_listed_twice_exits_1(self, argv, ex9_file, blockfactor_file, capsys):
        # each listing printed its own row, and solved its own LP
        path = blockfactor_file if argv[0] == "simulate" else ex9_file
        assert cli.run([*argv, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: method {argv[-2].split(',')[0]!r} is listed twice\n"


class TestDeclaredSizeCap:
    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["bounds", "--t", "1", "--graph"], {"n": 10**18, "edges": []}),
            (["simulate", "--t", "1", "--seed", "1", "--spec"],
             {"model": "block_factor", "n": 10**9, "k": 10**9,
              "dist": {"kind": "uniform", "lo": 0, "hi": 1}}),
        ],
        ids=["graph", "block-factor"],
    )
    def test_past_the_cap_exits_2_before_allocating(self, argv, doc, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = cli.run([*argv, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1_000_000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scale error:") and str(MAX_VERTICES) in captured.err

    def test_latent_tree_past_the_coordinate_cap_exits_2_before_any_emit(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        emit_callable = cli._emit_callable
        monkeypatch.setattr(cli, "_emit_callable", lambda *a: calls.append(a) or emit_callable(*a))
        n = 4000
        path = tmp_path / "path4000.json"
        spec = {"tree": {"n": n, "edges": [[v, v + 1] for v in range(1, n)]}, "vertex_latents": {}}
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"scale error: exhaustive verification supports n <= {couplingmod.MAX_COORDINATES}, got {n}\n"
        )


_RAW2_NO_TREE = {
    "spaces": [[0, 1], [0, 1]],
    "pmf": [{"x": [a, b], "p": "1/4"} for a in (0, 1) for b in (0, 1)],
}


class TestDocumentedBranches:
    def test_include_mcdiarmid_appends_to_an_explicit_list(self, ex9_file, capsys):
        argv = ["bounds", "--graph", ex9_file, "--t", "1", "--methods", "janson",
                "--include-mcdiarmid", "--format", "json"]
        assert cli.run(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(r["method"] for r in rows) == ["janson", "mcdiarmid"]

    def test_a_one_point_t_grid_is_its_start(self, blockfactor_file, capsys):
        argv = ["simulate", "--spec", blockfactor_file, "--seed", "1", "--n", "64",
                "--t-grid", "1:5:1", "--format", "json"]
        assert cli.run(argv) == 0
        assert [r["t"] for r in json.loads(capsys.readouterr().out)] == [1.0]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--t-grid", "1:5"], "--t-grid needs 'start:stop:count', got '1:5'"),
            (["--t-grid", "a:5:2"], "--t-grid needs 'start:stop:count', got 'a:5:2'"),
            pytest.param(
                ["--t-grid", "1:5:0"], "need --t-grid count >= 1, got 0", id="extra2---t-grid count must be >= 1"
            ),
            ([], "simulate needs --t or --t-grid"),
        ],
    )
    def test_bad_or_missing_thresholds_exit_1(self, blockfactor_file, extra, message, capsys):
        assert cli.run(["simulate", "--spec", blockfactor_file, "--seed", "1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "what, message",
        [
            ("dependency", "verify dependency needs --graph or a spec with a tree"),
            ("coupling", "verify coupling needs a spec with a tree"),
        ],
    )
    def test_raw_spec_without_a_tree_exits_1(self, what, message, tmp_path, capsys):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(_RAW2_NO_TREE))
        assert cli.run(["verify", what, "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "profile, message",
        [("uniform:x", "bad uniform coefficient 'uniform:x'"), ("1,a", "bad coefficient list '1,a'")],
    )
    def test_malformed_profile_exits_1(self, profile, message, ex9_file, capsys):
        assert cli.run(["bounds", "--graph", ex9_file, "--t", "1", "--c", profile]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {message}: ")

    def test_alphabets_mixing_numbers_and_strings_exit_1(self, p2xor_file, tmp_path, capsys):
        data = json.loads(Path(p2xor_file).read_text())
        data["alphabets"] = [[0, "a"], [0, 1]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(data))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}: malformed 'alphabets': ")


class TestRefusalsWithOneMessage:
    """Refusals no other test reaches: each exits 1 with its stderr line and no stdout."""

    def _refused(self, argv, message, capsys):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_a_dependency_graph_of_another_size(self, tmp_path, capsys):
        spec, graph = tmp_path / "spec.json", tmp_path / "graph.json"
        spec.write_text(json.dumps(_RAW3))
        graph.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}))
        argv = ["verify", "dependency", "--spec", str(spec), "--graph", str(graph)]
        self._refused(argv, "graph has 4 vertices, joint has 3", capsys)

    def test_a_gap_below_1_before_any_lp(self, tmp_path, monkeypatch, capsys):
        def no_lp(*args):
            raise AssertionError("an LP ran before the gap was checked")

        monkeypatch.setattr(coversmod, "fractional_chromatic_number", no_lp)
        monkeypatch.setattr(coversmod, "solve_min_cover_lp", no_lp)
        rng = random.Random(16)
        edges = [[u, v] for u in range(1, 17) for v in range(u + 1, 17) if rng.random() < 0.25]
        path = tmp_path / "g16.json"
        path.write_text(json.dumps({"n": 16, "edges": edges}))
        argv = ["bounds", "--graph", str(path), "--t", "1", "--m", "0"]
        self._refused(argv, "need block size m >= 1, got 0", capsys)

    def test_an_empty_latent_scope(self, tmp_path, capsys):
        spec = copy.deepcopy(_LATENT2)
        spec["latents"][1]["scope"] = []
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        self._refused([*_SIMULATE, str(path)], "latent scope is empty", capsys)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda spec: spec["graph"]["edges"].append([1, 3]),
             "edge (1, 3) endpoint 3 is outside the vertices 1..2"),
            (lambda spec: spec["latents"][1].update(scope=[3]),
             "latent scope vertex 3 is outside the vertices 1..2"),
        ],
        ids=["edge-endpoint", "latent-scope"],
    )
    def test_a_vertex_label_outside_the_graph(self, mutate, message, tmp_path, capsys):
        spec = copy.deepcopy(_LATENT2)
        mutate(spec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        self._refused([*_SIMULATE, str(path)], message, capsys)

    def test_an_identity_emit_on_a_vertex_reading_two_latents(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LATENT2, "emit": "identity"}))
        self._refused([*_SIMULATE, str(path)], "identity emit needs exactly one latent on the vertex", capsys)


class TestByteIdenticalReports:
    def test_bounds_runs_are_byte_identical(self, ex9_file, tmp_path):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        args = ["bounds", "--graph", ex9_file, "--t", "2.5", "--format", "csv"]
        assert cli.run(args + ["--out", out1]) == 0
        assert cli.run(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_lp_witness_does_not_depend_on_the_blas_kernel(self):
        """``covers chi-f`` prints the same bytes under OpenBLAS's Prescott kernel as by default.

        The graph is the first 16-vertex graph of the cover-lp benchmark at
        seed 1, where ranking columns by a BLAS product once let the kernel
        pick among tied columns.  Where the variable is ignored, both runs use
        one kernel and the test passes trivially.
        """
        graph = Path(__file__).resolve().parent / "data" / "g16_0.json"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run(
                [sys.executable, "-m", "graphtail.cli", "covers", "chi-f", "--graph", str(graph)],
                capture_output=True, timeout=120, env={**env, **extra},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
