"""Command-line interface: exit codes, file outputs, determinism."""

import copy
import csv
import json

import jsonschema
import numpy as np
import pytest
import scipy.sparse.linalg

import hierspect.spectral
from hierspect import generate_planted_partition, solve_planted_params, write_edge_list
from hierspect.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from hierspect.errors import SchemaError
from hierspect.serialize import (
    HIERARCHY_SCHEMA,
    SCORE_SCHEMA,
    TRUTH_SCHEMA,
    validate_document,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def flat_files(tmp_path):
    edges = tmp_path / "edges.tsv"
    truth = tmp_path / "truth.json"
    code = run(
        "generate", "--model", "flat", "--groups", "8", "--group-size", "10",
        "--snr", "max", "--seed", "1", "--edges", str(edges), "--truth", str(truth),
    )
    assert code == EXIT_OK
    return edges, truth


class TestGenerate:
    def test_clique_fixture(self, flat_files, tmp_path):
        edges, truth = flat_files
        doc = json.loads(truth.read_text())
        validate_document(doc, TRUTH_SCHEMA)
        assert doc["n"] == 80
        assert doc["levels"][0]["k"] == 8
        assert doc["seed"] == 1
        lines = [
            l for l in edges.read_text().splitlines() if l and not l.startswith("#")
        ]
        assert len(lines) == 8 * 45  # eight 10-cliques

    def test_symmetric_truth_levels(self, tmp_path):
        code = run(
            "generate", "--model", "symmetric", "--n", "729", "--schedule", "3,9,27",
            "--snr", "8", "--avg-degree", "30",
            "--edges", str(tmp_path / "e.tsv"), "--truth", str(tmp_path / "t.json"),
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "t.json").read_text())
        assert [level["k"] for level in doc["levels"]] == [27, 9, 3]
        assert "omega_fine" in doc

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("generate") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--model" in err

    def test_infeasible_snr_message(self, tmp_path, capsys):
        code = run(
            "generate", "--model", "flat", "--groups", "4", "--group-size", "10",
            "--snr", "99", "--edges", str(tmp_path / "e.tsv"),
            "--truth", str(tmp_path / "t.json"),
        )
        assert code == EXIT_USAGE
        assert "maximum feasible snr" in capsys.readouterr().err


class TestDetect:
    def test_detect_flat(self, flat_files, tmp_path):
        edges, _ = flat_files
        out = tmp_path / "hier.json"
        code = run("detect", "--edges", str(edges), "--out", str(out), "--seed", "3")
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_document(doc, HIERARCHY_SCHEMA)
        assert len(doc["levels"]) == 1
        assert doc["levels"][0]["k"] == 8
        assert doc["seed"] == 3
        assert doc["diagnostics"]

    def test_byte_identical_reruns(self, flat_files, tmp_path):
        edges, _ = flat_files
        out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
        assert run("detect", "--edges", str(edges), "--out", str(out1), "--seed", "5") == EXIT_OK
        assert run("detect", "--edges", str(edges), "--out", str(out2), "--seed", "5") == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_unreadable_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0 1\nbroken line yes\n")
        assert run("detect", "--edges", str(bad)) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("detect", "--edges", str(tmp_path / "absent.tsv")) == EXIT_DATA

    def test_degree_overflow_is_data_error(self, tmp_path, capsys):
        # finite weights whose sum at node 1 overflows to inf
        edges = tmp_path / "huge.tsv"
        edges.write_text("0 1 1e308\n1 2 1e308\n")
        assert run("detect", "--edges", str(edges)) == EXIT_DATA
        assert "error: node degrees and their total must be finite" in capsys.readouterr().err

    def test_zero_weight_edges_are_numerical_error(self, tmp_path, capsys):
        edges = tmp_path / "zero.tsv"
        edges.write_text("0 1 0\n1 2 0\n")
        assert run("detect", "--edges", str(edges)) == EXIT_NUMERICAL
        assert "error: graph has no edges" in capsys.readouterr().err

    def test_eigensolver_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        alpha, beta = solve_planted_params(4, 20.0, 6.0)
        graph, _ = generate_planted_partition(1500, 4, alpha, beta, seed=8)
        assert graph.n > hierspect.spectral._DENSE_CUTOFF
        edges = tmp_path / "planted.tsv"
        write_edge_list(graph, edges)

        def no_convergence(matrix, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no luck", np.zeros(0), np.zeros((matrix.shape[0], 0))
            )

        monkeypatch.setattr(hierspect.spectral, "eigsh", no_convergence)
        assert run("detect", "--edges", str(edges)) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "error: eigensolver did not converge (8 pairs requested, 0 available)" in err

    def test_isolated_top_ids_keep_node_count(self, tmp_path):
        edges, truth, hier = (tmp_path / name for name in ("e.tsv", "t.json", "h.json"))
        code = run(
            "generate", "--model", "assortative", "--n", "512", "--schedule", "2,4",
            "--avg-degree", "3", "--snr", "2", "--seed", "5",
            "--edges", str(edges), "--truth", str(truth),
        )
        assert code == EXIT_OK
        ids = np.loadtxt(edges, dtype=np.int64, usecols=(0, 1), ndmin=2)
        # the fixture's point: the largest id in an edge is below n - 1
        assert ids.max() < 511
        assert run("detect", "--edges", str(edges), "--out", str(hier)) == EXIT_OK
        assert json.loads(hier.read_text())["n"] == 512
        assert run("eval", "--truth", str(truth), "--pred", str(hier)) == EXIT_OK


class TestEval:
    def test_round_trip_scores(self, flat_files, tmp_path, capsys):
        edges, truth = flat_files
        hier = tmp_path / "hier.json"
        scores = tmp_path / "scores.json"
        assert run("detect", "--edges", str(edges), "--out", str(hier)) == EXIT_OK
        code = run(
            "eval", "--truth", str(truth), "--pred", str(hier), "--out", str(scores)
        )
        assert code == EXIT_OK
        doc = json.loads(scores.read_text())
        validate_document(doc, SCORE_SCHEMA)
        assert doc["precision"] == pytest.approx(1.0)
        assert doc["recall"] == pytest.approx(1.0)

    def test_eval_to_stdout(self, flat_files, tmp_path, capsys):
        edges, truth = flat_files
        hier = tmp_path / "hier.json"
        run("detect", "--edges", str(edges), "--out", str(hier))
        capsys.readouterr()
        assert run("eval", "--truth", str(truth), "--pred", str(hier)) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"xi", "precision", "recall"}

    def test_schema_violation_reports_path(self, tmp_path, capsys):
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"n": 4, "levels": "oops", "omega_fine": []}))
        pred = tmp_path / "p.json"
        pred.write_text(
            json.dumps({"n": 4, "levels": [{"k": 1, "membership": [0, 0, 0, 0], "omega": [[0.5]]}]})
        )
        assert run("eval", "--truth", str(truth), "--pred", str(pred)) == EXIT_DATA
        assert "$.levels" in capsys.readouterr().err

    def test_n_mismatch_is_data_error(self, tmp_path):
        a = {"n": 3, "levels": [{"k": 1, "membership": [0, 0, 0], "omega": [[0.1]]}], "omega_fine": [[0.1]]}
        b = {"n": 2, "levels": [{"k": 1, "membership": [0, 0], "omega": [[0.1]]}]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        assert run("eval", "--truth", str(tmp_path / "a.json"), "--pred", str(tmp_path / "b.json")) == EXIT_DATA

    def test_declared_k_must_match_membership(self, tmp_path):
        a = {"n": 2, "levels": [{"k": 2, "membership": [0, 0], "omega": [[0.1]]}], "omega_fine": [[0.1]]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(a))
        assert run("eval", "--truth", str(tmp_path / "a.json"), "--pred", str(tmp_path / "b.json")) == EXIT_DATA

    @pytest.mark.parametrize(
        "membership, k",
        [
            ([0, 2, 2], 2),  # label 1 unused
            ([0, 1, 10**12], 2),
            ([0, 1, 2**70], 2),
            ([0, 1.0, 1], 2),
            ([0, -1, 1], 2),
            ([False, True, True], 2),
            ([0, "1", 1], 2),
            ([0, None, 1], 2),
            ([[0], [1], [1]], 2),
            ([0, 1.5, 1], 2),
            ([0, 1], 2),
            ([], 2),
            ([0, 1, 1], 3),
            ("011", 2),
        ],
        ids=["unused-label", "10**12", "2**70", "1.0", "negative", "bool", "string", "null", "nested",
             "1.5", "short", "empty", "k-mismatch", "not-array"],
    )
    def test_malformed_membership_is_data_error(self, tmp_path, capsys, membership, k):
        omega = [[0.5, 0.1], [0.1, 0.5]]
        truth = {"n": 3, "levels": [{"k": 2, "membership": [0, 1, 1], "omega": omega}],
                 "omega_fine": omega}
        pred = {"n": 3, "levels": [{"k": k, "membership": membership, "omega": omega}]}
        (tmp_path / "t.json").write_text(json.dumps(truth))
        (tmp_path / "p.json").write_text(json.dumps(pred))
        code = run("eval", "--truth", str(tmp_path / "t.json"), "--pred", str(tmp_path / "p.json"))
        assert code == EXIT_DATA
        assert "$.levels[0].membership" in capsys.readouterr().err

    def test_deeply_nested_document_is_data_error(self, tmp_path, capsys):
        truth = {"n": 1, "levels": [{"k": 1, "membership": [0], "omega": [[0.5]]}],
                 "omega_fine": [[0.5]]}
        (tmp_path / "t.json").write_text(json.dumps(truth))
        depth = 100_000
        (tmp_path / "p.json").write_text(
            '{"n": 1, "levels": [{"k": 1, "omega": [[0.5]], "membership": '
            + "[" * depth + "]" * depth + "}]}"
        )
        code = run("eval", "--truth", str(tmp_path / "t.json"), "--pred", str(tmp_path / "p.json"))
        assert code == EXIT_DATA
        assert "invalid JSON" in capsys.readouterr().err


def _valid_documents():
    """A valid document per schema, keyed by the schema's name."""
    omega = [[0.5, 0.1], [0.1, 0.5]]
    hierarchy = {
        "n": 3,
        "levels": [
            {"k": 2, "membership": [0, 1, 1], "omega": omega},
            {"k": 1, "membership": [0, 0, 0], "omega": [[0.3]]},
        ],
    }
    return {
        "hierarchy": (HIERARCHY_SCHEMA, hierarchy),
        "truth": (TRUTH_SCHEMA, {**hierarchy, "omega_fine": omega}),
        "score": (SCORE_SCHEMA, {"xi": [[1.0, 0.5], [0.25, 1]], "precision": 0.75, "recall": 1.0}),
    }


def _with_numpy_floats(value):
    """``value`` with every float replaced by an ``np.float64``."""
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, list):
        return [_with_numpy_floats(item) for item in value]
    if isinstance(value, dict):
        return {key: _with_numpy_floats(item) for key, item in value.items()}
    return value


def _stock_verdict(doc, schema):
    """(json_path, message) of ``jsonschema.validate``'s error, or None."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return exc.json_path, exc.message
    return None


def _our_verdict(doc, schema):
    try:
        validate_document(doc, schema)
    except SchemaError as exc:
        return exc.json_path, str(exc)
    return None


class TestValidateDocument:
    @pytest.mark.parametrize("schema", [HIERARCHY_SCHEMA, TRUTH_SCHEMA, SCORE_SCHEMA],
                             ids=["hierarchy", "truth", "score"])
    def test_schema_constants_are_valid_schemas(self, schema):
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "name, matrix",
        [("hierarchy", ("levels", 0, "omega")), ("hierarchy", ("levels", 1, "omega")),
         ("truth", ("levels", 1, "omega")), ("truth", ("omega_fine",)), ("score", ("xi",))],
        ids=["levels0-omega", "levels1-omega", "truth-levels1-omega", "omega_fine", "xi"],
    )
    @pytest.mark.parametrize(
        "bad, row_only",
        [("0.5", False), (True, False), (None, False), ([0.5], False), (0.5, True)],
        ids=["string", "true", "null", "nested-list", "non-array-row"],
    )
    def test_matches_stock_validate(self, name, matrix, bad, row_only):
        schema, doc = _valid_documents()[name]
        doc = copy.deepcopy(doc)
        rows = doc
        for key in matrix:
            rows = rows[key]
        if row_only:
            rows[-1] = bad
        else:
            rows[-1][0] = bad
        stock = _stock_verdict(doc, schema)
        assert stock is not None
        path, message = stock
        assert _our_verdict(doc, schema) == (
            path, f"document does not match schema at {path}: {message}"
        )

    @pytest.mark.parametrize("numpy_floats", [False, True], ids=["json", "np-float64"])
    @pytest.mark.parametrize("name", ["hierarchy", "truth", "score"])
    def test_valid_documents_pass(self, name, numpy_floats):
        # np.float64 is a float subclass, not a type the one-pass check
        # accepts, so its arrays go to jsonschema's own items keyword
        schema, doc = _valid_documents()[name]
        if numpy_floats:
            doc = _with_numpy_floats(doc)
        assert _stock_verdict(doc, schema) is None
        assert _our_verdict(doc, schema) is None


class TestCountOptions:
    FLAT = ["--model", "flat", "--n", "80", "--schedule", "8", "--avg-degree", "10",
            "--snr-range", "6:6:1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--z", "0"],
            ["benchmark", *FLAT, "--z", "0"],
            ["benchmark", *FLAT, "--reps", "0"],
        ],
    )
    def test_zero_count_is_usage_error(self, flat_files, tmp_path, argv):
        edges, _ = flat_files
        extra = ["--edges", str(edges)] if argv[0] == "detect" else []
        out = tmp_path / "out"
        assert run(*argv, *extra, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_non_integer_workers_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HIERSPECT_WORKERS", "two")
        out = tmp_path / "r.csv"
        assert run("benchmark", *self.FLAT, "--z", "5", "--out", str(out)) == EXIT_USAGE
        assert not out.exists()


class TestBenchmark:
    def test_flat_sweep(self, tmp_path):
        out = tmp_path / "results.csv"
        code = run(
            "benchmark", "--model", "flat", "--n", "160", "--schedule", "16",
            "--avg-degree", "10", "--snr-range", "4:8:4", "--reps", "2",
            "--seed", "7", "--out", str(out), "--z", "30",
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # two SNRs x two reps
        assert rows[0].keys() == {
            "model", "snr", "rep", "seed", "status", "n_levels_inferred",
            "precision", "recall", "ami_level_1",
        }
        seeds = {r["seed"] for r in rows}
        assert len(seeds) == 4  # distinct per-rep seeds
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["n_levels_inferred"] == "1" for r in rows)

    def test_reproducible(self, tmp_path):
        args = [
            "benchmark", "--model", "flat", "--n", "80", "--schedule", "8",
            "--avg-degree", "10", "--snr-range", "6:6:1", "--reps", "2",
            "--seed", "9", "--z", "20",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(*args, "--out", str(out1)) == EXIT_OK
        assert run(*args, "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "r.csv"
        # snr sweep crossing the feasibility boundary: infeasible rows get
        # a status note, the run keeps going
        code = run(
            "benchmark", "--model", "flat", "--n", "80", "--schedule", "8",
            "--avg-degree", "10", "--snr-range", "8:12:4", "--reps", "1",
            "--seed", "11", "--z", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        statuses = [r["status"] for r in rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error:")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"--model": "flat", "--schedule": "2,4"},
            {"--n": "1"},
            {"--snr-range": "0:0:1"},
            {"--avg-degree": "-5"},
            {"--model": "assortative", "--schedule": "2,5"},
        ],
        ids=["flat-two-levels", "n-1", "snr-0", "negative-degree", "non-refining-schedule"],
    )
    def test_invalid_spec_is_usage_error(self, tmp_path, overrides):
        options = {"--model": "flat", "--n": "80", "--schedule": "8",
                   "--avg-degree": "10", "--snr-range": "6:6:1", **overrides}
        out = tmp_path / "r.csv"
        argv = [part for item in options.items() for part in item]
        assert run("benchmark", *argv, "--z", "5", "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run(
            "benchmark", "--model", "flat", "--n", "80", "--avg-degree", "10",
            "--snr-range", "oops", "--out", str(tmp_path / "r.csv"),
        ) == EXIT_USAGE

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        args = [
            "benchmark", "--model", "flat", "--n", "80", "--schedule", "8",
            "--avg-degree", "10", "--snr-range", "4:8:4", "--reps", "2",
            "--seed", "21", "--z", "20",
        ]
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        monkeypatch.setenv("HIERSPECT_WORKERS", "1")
        assert run(*args, "--out", str(seq)) == EXIT_OK
        monkeypatch.setenv("HIERSPECT_WORKERS", "3")
        assert run(*args, "--out", str(par)) == EXIT_OK
        assert seq.read_bytes() == par.read_bytes()


class TestHelp:
    def test_help_exits_zero(self):
        assert run("--help") == EXIT_OK
        assert run("generate", "--help") == EXIT_OK

    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_USAGE
