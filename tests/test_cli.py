import csv
import io
import json

import pytest

from graphtail import cli
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

    def test_cap_exhaustion_exit_2(self, ex9_file):
        assert cli.run(["covers", "chi-f", "--graph", ex9_file, "--cap", "3"]) == 2

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


class TestByteIdenticalReports:
    def test_bounds_runs_are_byte_identical(self, ex9_file, tmp_path):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        args = ["bounds", "--graph", ex9_file, "--t", "2.5", "--format", "csv"]
        assert cli.run(args + ["--out", out1]) == 0
        assert cli.run(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
