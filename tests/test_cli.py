import contextlib
import copy
import csv
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtail import bounds as boundsmod
from graphtail import cli
from graphtail import covers as coversmod
from graphtail.bounds import ALL_METHODS
from graphtail.errors import InputError, VerificationError


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
        with pytest.raises(InputError, match="entries"):
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
        b1 = open(out1, "rb").read()
        assert b1 == open(out2, "rb").read()
        rows = list(csv.DictReader(io.StringIO(b1.decode())))
        assert all(r["verdict"] == "PASS" for r in rows)

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
        assert open(out1, "rb").read() == open(out2, "rb").read()

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
        data = json.loads(open(p2xor_file).read())
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


class TestExitCodes:
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
        spec = json.loads(open(p2xor_file).read())
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
        "spec",
        [
            # mixed-type alphabet in a raw joint
            {"spaces": [[0, "a"], [0, 1]], "pmf": [{"x": [0, 0], "p": 1}]},
            # emit rule written as a string
            {**_P2XOR, "emit": {"1": "xor"}},
            # table key that is not a list of integers
            {**_P2XOR, "emit": {"1": {"kind": "table", "map": {"a,0": 1}}}},
            # table map given as a list
            {**_P2XOR, "emit": {"1": {"kind": "table", "map": [[0, 0, 1]]}}},
            # pmf given as an object instead of a list
            {"spaces": [[0, 1]], "pmf": {"x": [0], "p": 1}},
            # non-integer latent values under the default xor emit
            {**_P2XOR, "emit": {}, "vertex_latents": {
                "1": {"values": ["a", "b"], "probs": ["1/2", "1/2"]},
                "2": {"values": [0, 1], "probs": ["1/2", "1/2"]},
            }},
        ],
    )
    def test_malformed_joint_specs_exit_1(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

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
        # exit 3 is a FAIL verdict, which a tiny width gives: the bound falls below the
        # CI limit that 64 samples with no hit reach
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
        assert cli.run(base + ["--t-grid", "0:1:1000000000000"]) == 2
        assert cli.run(base + ["--t", ",".join(["1"] * 10_001)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("scale error: ") == 2
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


class TestByteIdenticalReports:
    def test_bounds_runs_are_byte_identical(self, ex9_file, tmp_path):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        args = ["bounds", "--graph", ex9_file, "--t", "2.5", "--format", "csv"]
        assert cli.run(args + ["--out", out1]) == 0
        assert cli.run(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
