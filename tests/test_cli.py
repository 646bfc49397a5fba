"""CSV ingestion, report serialization, and end-to-end CLI behavior."""

import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    Dataset,
    EmptyInput,
    ParseError,
    build_stage2_design,
    run_two_stage,
)
from pairscreen.cli import main
from pairscreen.csvio import dominant_encode, load_csv_matrix, write_csv_matrix
from pairscreen.pipeline import _fit_outcome

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


class TestLoadCsv:
    def test_two_by_two(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "a,b\n1,2\n3,4\n")
        matrix, labels = load_csv_matrix(f)
        assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert labels == ("a", "b")

    def test_na_cell_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "a,b\n1,NA\n")
        with pytest.raises(ParseError) as err:
            load_csv_matrix(f)
        assert err.value.line == 2 and err.value.col == 2

    def test_single_column(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "y\n1\n2\n3\n4\n5\n")
        matrix, labels = load_csv_matrix(f)
        assert matrix.shape == (5, 1)
        assert labels == ("y",)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError) as err:
            load_csv_matrix(f)
        assert err.value.line == 3

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "a,b\n1,2\n\n\n3,x\n")
        with pytest.raises(ParseError) as err:
            load_csv_matrix(f)
        assert err.value.line == 5 and err.value.col == 2
        assert "line 5" in str(err.value)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.csv"
        write_text(f, "")
        with pytest.raises(EmptyInput):
            load_csv_matrix(f)
        write_text(f, "a,b\n")
        with pytest.raises(EmptyInput):
            load_csv_matrix(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_matrix(tmp_path / "nope.csv")

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("a,b\n1,2 # c\n", (ParseError, 2, 2), id="comment"),
            pytest.param('a,b\n"1",2\n', [[1.0, 2.0]], id="quoted"),
            pytest.param('a,b\n"1,5",2\n', (ParseError, 2, 1), id="quoted-comma"),
            pytest.param("a,b\n 1 , 2 \n", [[1.0, 2.0]], id="padded"),
            pytest.param("a,b\n1_000,2\n", [[1000.0, 2.0]], id="digit-separator"),
            pytest.param("a,b\ninf,2\n", (ParseError, 2, 1), id="inf"),
            pytest.param("a,b\n1,nan\n", (ParseError, 2, 2), id="nan"),
            pytest.param("a,b\n1,\n", (ParseError, 2, 2), id="empty-cell"),
            pytest.param("a,b\n0x10,2\n", (ParseError, 2, 1), id="hex"),
            pytest.param("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
            pytest.param("\n\na,b\n1,2\n", [[1.0, 2.0]], id="leading-blank-lines"),
            pytest.param("a,b\n1,2\n   \n3,4\n", (ParseError, 3, None), id="whitespace-line"),
            pytest.param("a,b\n1,2,\n", (ParseError, 2, None), id="trailing-comma"),
            pytest.param("a,b\n1,2,3\n", (ParseError, 2, None), id="extra-cell"),
            pytest.param("a,b\n\n", (EmptyInput, None, None), id="header-only"),
        ],
    )
    def test_same_result_as_cell_by_cell_reading(self, tmp_path, text, expected):
        # expected: what one float() call per cell gives, the matrix or the
        # error with its line and column
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, list):
                matrix, labels = load_csv_matrix(f)
                assert matrix.tolist() == expected
                assert labels == ("a", "b")
                return
            error, line, col = expected
            with pytest.raises(error) as err:
                load_csv_matrix(f)
        if error is ParseError:
            assert (err.value.line, err.value.col) == (line, col)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((17, 4)) * 10.0 ** rng.integers(-8, 8, size=(17, 4))
        f = tmp_path / "m.csv"
        write_csv_matrix(f, matrix, ("a", "b", "c", "d"))
        back, labels = load_csv_matrix(f)
        assert labels == ("a", "b", "c", "d")
        assert np.array_equal(back, matrix)  # repr serialization is exact


class TestDominantEncode:
    def test_mapping(self):
        assert dominant_encode(np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 1.0, 1.0]

    def test_all_zero_column_passes_through(self):
        out = dominant_encode(np.zeros((4, 2)))
        assert out.tolist() == np.zeros((4, 2)).tolist()

    def test_matrix_example(self):
        out = dominant_encode(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            dominant_encode(np.array([0.0, 3.0]))
        with pytest.raises(ParseError):
            dominant_encode(np.array([0.5]))
        with pytest.raises(ParseError) as err:
            dominant_encode(np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 3.0]]))
        assert str(err.value).endswith("got 3 in column 3")
        assert err.value.col == 3
        with pytest.raises(ParseError) as err:
            dominant_encode(np.array([[0.5], [1.0]]))
        assert "got 0.5 in column 1" in str(err.value)
        assert err.value.col == 1


def make_analysis_files(tmp_path, n=60, p=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = (
        0.5
        + 0.9 * x[:, 0]
        + 0.9 * x[:, 1]
        + 1.2 * x[:, 0] * x[:, 1]
        + rng.standard_normal(n)
    )
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_csv_matrix(x_path, x, tuple(f"v{i}" for i in range(p)))
    write_csv_matrix(y_path, y[:, None], ("y",))
    return x_path, y_path, x, y


class TestAnalyzeCommand:
    def test_end_to_end_report(self, tmp_path):
        x_path, y_path, x, y = make_analysis_files(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--x", str(x_path),
                "--y", str(y_path),
                "--family", "gaussian",
                "--alpha1", "0.1",
                "--eta", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(doc, schema)
        assert doc["p"] == 5 and doc["n"] == 60
        assert doc["family"] == "gaussian_identity"
        assert doc["t_max"] == pytest.approx(math.sqrt(2 * math.log(5)))

        # report matches a direct library run on the same data
        lib = run_two_stage(
            Dataset(x=x, y=y, family=GAUSSIAN, labels=tuple(f"v{i}" for i in range(5))),
            alpha1=0.1,
            eta=0.1,
        )
        assert doc["t_hat"] == lib.t_hat
        assert doc["p1"] == lib.p1
        assert doc["rejections"] == lib.rejections

        # rejected CSV sorted by |T| descending
        csv_path = tmp_path / doc["rejected_csv"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "j,k,label_j,label_k,t_jk"
        stats = [abs(float(line.split(",")[4])) for line in lines[1:]]
        assert stats == sorted(stats, reverse=True)
        assert len(stats) == doc["rejections"]

    def test_rerun_byte_identical(self, tmp_path):
        x_path, y_path, _, _ = make_analysis_files(tmp_path, seed=21)
        argv_base = [
            "analyze",
            "--x", str(x_path),
            "--y", str(y_path),
            "--family", "gaussian",
            "--alpha1", "0.2",
            "--eta", "0.1",
        ]
        assert main(argv_base + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(argv_base + ["--out", str(tmp_path / "b.json")]) == 0
        a = (tmp_path / "a.json").read_text().replace("a.rejected.csv", "")
        b = (tmp_path / "b.json").read_text().replace("b.rejected.csv", "")
        assert a == b
        assert (tmp_path / "a.rejected.csv").read_bytes() == (
            tmp_path / "b.rejected.csv"
        ).read_bytes()

    def test_alpha1_zero_matches_library_bh(self, tmp_path):
        x_path, y_path, x, y = make_analysis_files(tmp_path, seed=3)
        out = tmp_path / "bh.json"
        assert (
            main(
                [
                    "analyze",
                    "--x", str(x_path),
                    "--y", str(y_path),
                    "--family", "gaussian",
                    "--alpha1", "0",
                    "--eta", "0.1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        lib = run_two_stage(Dataset(x=x, y=y, family=GAUSSIAN), alpha1=0.0, eta=0.1)
        got = {(rec["j"], rec["k"]) for rec in doc["pairs"] if rec["rejected"]}
        hit = lib.rejected
        assert got == set(zip(lib.pairs.j[hit].tolist(), lib.pairs.k[hit].tolist()))

    def test_p_equals_two_tests_at_most_one_pair(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 2))
        y = x[:, 0] + x[:, 1] + rng.standard_normal(30)
        write_csv_matrix(tmp_path / "x.csv", x, ("a", "b"))
        write_csv_matrix(tmp_path / "y.csv", y[:, None], ("y",))
        out = tmp_path / "r.json"
        code = main(
            [
                "analyze",
                "--x", str(tmp_path / "x.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--family", "gaussian",
                "--alpha1", "0",
                "--eta", "0.2",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["pairs"]) + len(doc["skipped"]) <= 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--x", str(tmp_path / "missing.csv"),
                "--y", str(tmp_path / "missing2.csv"),
                "--family", "gaussian",
                "--alpha1", "0.1",
                "--eta", "0.1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code != 0
        assert "FILE_NOT_FOUND" in capsys.readouterr().err

    def test_parse_error_code(self, tmp_path, capsys):
        write_text(tmp_path / "x.csv", "a,b\n1,oops\n")
        write_text(tmp_path / "y.csv", "y\n1\n")
        code = main(
            [
                "analyze",
                "--x", str(tmp_path / "x.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--family", "gaussian",
                "--alpha1", "0.1",
                "--eta", "0.1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code != 0
        assert "PARSE_ERROR" in capsys.readouterr().err

    def test_dominant_flag(self, tmp_path):
        rng = np.random.default_rng(8)
        g = rng.integers(0, 3, size=(40, 3)).astype(float)
        y = (g[:, 0] > 0) * 1.0 + rng.standard_normal(40)
        write_csv_matrix(tmp_path / "g.csv", g, ("s1", "s2", "s3"))
        write_csv_matrix(tmp_path / "y.csv", y[:, None], ("y",))
        out = tmp_path / "r.json"
        code = main(
            [
                "analyze",
                "--x", str(tmp_path / "g.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--family", "gaussian",
                "--alpha1", "0",
                "--eta", "0.1",
                "--dominant",
                "--out", str(out),
            ]
        )
        assert code == 0

    def test_logistic_dominant_report_same_for_any_worker_count(self, tmp_path):
        rng = np.random.default_rng(21)
        g = rng.integers(0, 3, size=(150, 6)).astype(float)
        g[:, 4] = g[:, 0]  # pair (0, 4) has empty cells
        carrier = g > 0
        y = (rng.random(150) < 1 / (1 + np.exp(0.5 - 1.2 * carrier[:, 0] * carrier[:, 1]))) * 1.0
        y[carrier[:, 2] & carrier[:, 3]] = 1.0  # pair (2, 3) has a pure cell
        write_csv_matrix(tmp_path / "g.csv", g, tuple(f"s{i}" for i in range(6)))
        write_csv_matrix(tmp_path / "y.csv", y[:, None], ("y",))

        def run(workers):
            out_dir = tmp_path / f"w{workers}"
            out_dir.mkdir()
            code = main(
                [
                    "analyze",
                    "--x", str(tmp_path / "g.csv"),
                    "--y", str(tmp_path / "y.csv"),
                    "--family", "logistic",
                    "--alpha1", "0",
                    "--eta", "0.1",
                    "--dominant",
                    "--workers", str(workers),
                    "--out", str(out_dir / "r.json"),
                ]
            )
            assert code == 0
            return [(out_dir / name).read_bytes() for name in ("r.json", "r.rejected.csv")]

        # pairs (0, 4) and (2, 3) need full fits, which the two workers share
        one, two = run(1), run(2)
        assert one == two
        doc = json.loads(one[0])
        outcomes = {(rec["j"], rec["k"]): (rec["t_jk"], "") for rec in doc["pairs"]}
        outcomes.update({(rec["j"], rec["k"]): (None, rec["reason"]) for rec in doc["skipped"]})
        carrier = carrier.astype(float)
        for j, k in ((0, 4), (2, 3)):
            design = build_stage2_design(carrier[:, j], carrier[:, k])
            t, code = _fit_outcome(design, y, LOGISTIC, 3)
            assert outcomes[(j, k)] == (None if code else t, code)

    def test_adjust_file_changes_stage2(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 4))
        adj = rng.standard_normal((50, 2))
        y = x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1] + adj[:, 0] + rng.standard_normal(50)
        write_csv_matrix(tmp_path / "x.csv", x, ("a", "b", "c", "d"))
        write_csv_matrix(tmp_path / "y.csv", y[:, None], ("y",))
        write_csv_matrix(tmp_path / "adj.csv", adj, ("pc1", "pc2"))
        base = [
            "analyze",
            "--x", str(tmp_path / "x.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--family", "gaussian",
            "--alpha1", "0",
            "--eta", "0.1",
        ]
        assert main(base + ["--out", str(tmp_path / "plain.json")]) == 0
        assert (
            main(base + ["--adjust", str(tmp_path / "adj.csv"), "--out", str(tmp_path / "adj.json")])
            == 0
        )
        plain = json.loads((tmp_path / "plain.json").read_text())
        adjusted = json.loads((tmp_path / "adj.json").read_text())
        t_plain = {(r["j"], r["k"]): r["t_jk"] for r in plain["pairs"]}
        t_adj = {(r["j"], r["k"]): r["t_jk"] for r in adjusted["pairs"]}
        assert t_plain.keys() == t_adj.keys()
        assert any(t_plain[key] != t_adj[key] for key in t_plain)

    def test_config_file_with_flag_override(self, tmp_path):
        x_path, y_path, _, _ = make_analysis_files(tmp_path, seed=11)
        cfg = {
            "x": str(x_path),
            "y": str(y_path),
            "family": "gaussian",
            "alpha1": 0.1,
            "eta": 0.1,
            "out": str(tmp_path / "from_config.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        write_text(cfg_path, json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        doc1 = json.loads((tmp_path / "from_config.json").read_text())
        assert doc1["alpha1"] == 0.1

        # explicit flag beats the config value
        out2 = tmp_path / "override.json"
        assert (
            main(
                ["analyze", "--config", str(cfg_path), "--alpha1", "0.5", "--out", str(out2)]
            )
            == 0
        )
        doc2 = json.loads(out2.read_text())
        assert doc2["alpha1"] == 0.5

    def test_config_values_are_converted_like_flags(self, tmp_path):
        x_path, y_path, _, _ = make_analysis_files(tmp_path, seed=11)
        base = ["analyze", "--x", str(x_path), "--y", str(y_path), "--family", "gaussian"]
        flags = tmp_path / "flags.json"
        assert main(base + ["--alpha1", "0.1", "--eta", "0.1", "--out", str(flags)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg = {"alpha1": "0.1", "eta": "0.1", "workers": "2", "out": str(tmp_path / "cfg.out")}
        write_text(cfg_path, json.dumps(cfg))
        assert main(base + ["--config", str(cfg_path)]) == 0
        from_cfg = json.loads((tmp_path / "cfg.out").read_text())
        from_cfg["rejected_csv"] = json.loads(flags.read_text())["rejected_csv"]
        assert from_cfg == json.loads(flags.read_text())

    @pytest.mark.parametrize(
        "bad",
        [
            {"eta": "0.1x"},
            {"family": "poisson"},
            {"workers": 2.5},
            {"dominant": "yes"},
            {"eta": 1.5},
            {"alpha1": -0.1},
            {"workers": 0},
        ],
    )
    def test_bad_config_value_fails_before_loading(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        write_text(cfg_path, json.dumps({"family": "gaussian", "alpha1": 0.1, "eta": 0.1, **bad}))
        code = main(
            [
                "analyze",
                "--config", str(cfg_path),
                "--x", str(tmp_path / "missing.csv"),
                "--y", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error INVALID_CONFIG: ")
        assert repr(next(iter(bad))) in err

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (["--eta", "1.5"], "'1.5'"),
            (["--eta", "abc"], "'abc'"),
            (["--workers", "-2"], "'-2'"),
            (["--family", "poisson"], "'poisson'"),
            (["--no-such-flag"], "--no-such-flag"),
        ],
    )
    def test_bad_flag_fails_before_loading(self, tmp_path, capsys, bad, shown):
        missing = str(tmp_path / "missing.csv")
        argv = ["analyze", "--x", missing, "--y", missing, "--family", "gaussian",
                "--alpha1", "0.1", "--eta", "0.1", "--out", str(tmp_path / "r.json")]
        assert main(argv + bad) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error INVALID_CONFIG: ")
        assert shown in captured.err and "usage:" not in captured.err + captured.out
        assert not (tmp_path / "r.json").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--strict-cutoff" in capsys.readouterr().out


class TestSimulateCommand:
    def run_sim(self, tmp_path, name="m.csv", extra=()):
        out = tmp_path / name
        argv = [
            "simulate",
            "--family", "gaussian",
            "--n", "60",
            "--p", "8",
            "--b", "0.8",
            "--alpha1", "0,0.3",
            "--eta", "0.1",
            "--reps", "2",
            "--seed", "42",
            "--out", str(out),
        ] + list(extra)
        assert main(argv) == 0
        return out.read_bytes()

    def test_row_accounting(self, tmp_path):
        content = self.run_sim(tmp_path).decode()
        lines = content.strip().splitlines()
        # header + 2 alpha1 x 2 reps detail + 2 aggregate rows
        assert len(lines) == 1 + 4 + 2
        header = lines[0].split(",")
        assert header[:3] == ["alpha1", "b", "rep"]
        agg = [line for line in lines[1:] if ",mean," in line]
        assert len(agg) == 2

    def test_byte_identical_rerun(self, tmp_path):
        first = self.run_sim(tmp_path, "a.csv")
        second = self.run_sim(tmp_path, "b.csv")
        assert first == second

    def test_byte_identical_across_workers(self, tmp_path):
        one = self.run_sim(tmp_path, "w1.csv", extra=["--workers", "1"])
        four = self.run_sim(tmp_path, "w4.csv", extra=["--workers", "4"])
        assert one == four

    def test_null_power_columns_empty(self, tmp_path):
        out = tmp_path / "null.csv"
        assert (
            main(
                [
                    "simulate",
                    "--family", "gaussian",
                    "--n", "60",
                    "--p", "6",
                    "--b", "0",
                    "--alpha1", "0.5",
                    "--eta", "0.1",
                    "--reps", "2",
                    "--seed", "1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        power_idx = header.index("power")
        for line in lines[1:]:
            assert line.split(",")[power_idx] == ""

    def test_invalid_config_exit(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--family", "gaussian",
                "--n", "60",
                "--p", "8",
                "--b", "0.5",
                "--alpha1", "0.1",
                "--eta", "0.1",
                "--reps", "2",
                # --seed missing
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code != 0
        assert "INVALID_CONFIG" in capsys.readouterr().err
