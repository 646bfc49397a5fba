"""CSV ingestion, report serialization, and end-to-end CLI behavior."""

import io
import json
import math
import os
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    Dataset,
    EmptyInput,
    ParseError,
    build_stage2_design,
    run_two_stage,
)
import pairscreen.pipeline
from pairscreen import csvio
from pairscreen.cli import main
from pairscreen.csvio import dominant_encode, format_number, load_csv_matrix
from pairscreen.pipeline import _fit_outcome
from test_glm import cell_table, log_odds_ratio_oracle, table_code

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def write_csv(path, matrix, labels):
    """A header row, then one row of ``format_number`` cells per matrix row."""
    rows = [labels, *(map(format_number, row) for row in np.asarray(matrix, dtype=float))]
    write_text(path, "".join(",".join(row) + "\n" for row in rows))


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
            pytest.param("\ufeffa,b\n1,2\n", [[1.0, 2.0]], id="byte-order-mark"),
            pytest.param(b"caf\xe9,b\n1,2\n", (ParseError, None, None), id="latin-1-label"),
            pytest.param(b"a,b\n1,\xe9\n", (ParseError, None, None), id="latin-1-cell"),
        ],
    )
    def test_same_result_as_cell_by_cell_reading(self, tmp_path, text, expected):
        # expected: what one float() call per cell gives, the matrix or the
        # error with its line and column; text may be given as raw bytes
        f = tmp_path / "m.csv"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
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
            assert str(err.value).startswith(f"{f}: ")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((17, 4)) * 10.0 ** rng.integers(-8, 8, size=(17, 4))
        f = tmp_path / "m.csv"
        write_csv(f, matrix, ("a", "b", "c", "d"))
        back, labels = load_csv_matrix(f)
        assert labels == ("a", "b", "c", "d")
        assert np.array_equal(back, matrix)  # repr serialization is exact


@st.composite
def digit_files(draw):
    """A header of padded labels, then rows of one-digit cells."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    labels = draw(st.lists(st.text(" aé_Z9", max_size=4), min_size=cols, max_size=cols))
    row = st.text("0123456789", min_size=cols, max_size=cols)
    digits = draw(st.lists(row, min_size=rows, max_size=rows))
    bom = "\ufeff" if draw(st.booleans()) else ""
    lines = [",".join(labels), *(",".join(row) for row in digits)]
    return (bom + "".join(line + "\n" for line in lines)).encode()


def mutate(text, mutation, draw):
    """``text`` with one change that each reader must treat alike."""
    head, body = text.split(b"\n", 1)
    cell = 2 * draw(st.integers(0, len(body) // 2 - 1))  # a digit's offset in the body
    line = draw(st.sampled_from([i + 1 for i, c in enumerate(body) if c == ord("\n")]))
    return {
        "none": text,
        "crlf": text.replace(b"\n", b"\r\n"),
        "no-final-newline": text[:-1],
        "blank-line": head + b"\n" + body[:line] + b"\n" + body[line:],
        "two-digit-cell": head + b"\n" + body[:cell] + b"1" + body[cell:],
        "letter": head + b"\n" + body[:cell] + b"x" + body[cell + 1 :],
        "quoted-label": b'"a"' + text,
        "quoted-label-with-comma": b'"a,b",' + text,
        "header-only": head + b"\n",
        "non-utf8-header": b"\xe9" + text,
    }[mutation]


class TestDigitReader:
    @staticmethod
    def read(reader, path):
        """The reader's matrix bits and labels, or its error type and message."""
        try:
            matrix, labels = reader(path)
        except (ParseError, EmptyInput) as exc:
            return type(exc), str(exc)
        return matrix.shape, matrix.tobytes(), labels

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        mutation=st.sampled_from(
            ["none", "crlf", "no-final-newline", "blank-line", "two-digit-cell", "letter",
             "quoted-label", "quoted-label-with-comma", "header-only", "non-utf8-header"]
        ),
    )
    def test_same_result_as_cell_by_cell_reading(self, tmp_path_factory, data, mutation):
        f = tmp_path_factory.mktemp("digits") / "g.csv"
        f.write_bytes(mutate(data.draw(digit_files()), mutation, data.draw))
        assert self.read(load_csv_matrix, f) == self.read(csvio._load_cell_by_cell, f)

    def test_genotype_file_is_not_parsed_as_text(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", must_not_run)
        f = tmp_path / "g.csv"
        write_text(f, "a,b,c\n0,1,2\n2,2,0\n")
        matrix, labels = load_csv_matrix(f)
        assert matrix.tolist() == [[0.0, 1.0, 2.0], [2.0, 2.0, 0.0]] and labels == ("a", "b", "c")

    def test_float_file_is_parsed_by_loadtxt(self, tmp_path, monkeypatch):
        calls, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        f = tmp_path / "m.csv"
        write_text(f, "a,b\n0.5,1\n2,3\n")
        assert load_csv_matrix(f)[0].tolist() == [[0.5, 1.0], [2.0, 3.0]] and calls == [1]

    def test_rejected_file_is_read_to_its_first_data_row(self, tmp_path, monkeypatch):
        reads = []

        class Recording(io.BufferedReader):
            def readline(self, *args):
                reads.append(super().readline(*args))
                return reads[-1]

            def read(self, *args):
                reads.append(super().read(*args))
                return reads[-1]

        def recording_open(path, mode):
            assert mode == "rb"
            return Recording(io.FileIO(path))

        monkeypatch.setattr(csvio, "open", recording_open, raising=False)
        f = tmp_path / "m.csv"
        f.write_bytes(b"a,b\n0.5,1\n" + b"1,2\n" * 1000)
        assert csvio._load_digits(f) is None
        assert reads == [b"a,b\n", b"0.5,1\n"]


class TestFormatNumber:
    def test_integers_are_exact(self):
        assert format_number(10**17) == "100000000000000000"
        assert format_number(-3) == "-3"

    def test_floats_round_trip(self):
        assert format_number(3.0) == "3"
        assert format_number(0.1) == "0.1"
        assert format_number(1e17) == "1e+17"
        assert format_number(np.float64(2.5)) == "2.5"


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
    write_csv(x_path, x, tuple(f"v{i}" for i in range(p)))
    write_csv(y_path, y[:, None], ("y",))
    return x_path, y_path, x, y


# logistic n = 10, p = 4, b = 0 and 2, alpha1 = 0 and 0.5, eta = 0.3, 4 reps,
# seed 1: replicate 2 fails stage 1 in both b cells, b = 0 has an empty H1
PINNED_METRICS_CSV = """\
alpha1,b,rep,fdp,power,omega,p1,t_hat,rejections,seed,error,fdp_se,power_se,power_reps,failed_reps
0,0,0,0,,1.6666666666666667,4,1.6651092223153954,0,1,,,,,
0.5,0,0,0,,0.8333333333333334,2,1.0364333894937894,0,1,,,,,
0,0,1,0,,0.8333333333333334,2,1.0364333894937894,0,2,,,,,
0.5,0,1,0,,0.6666666666666666,1,1.6651092223153954,0,2,,,,,
0,0,2,,,,,,,3,ALL_FITS_FAILED,,,,
0.5,0,2,,,,,,,3,ALL_FITS_FAILED,,,,
0,0,3,0,,1.6666666666666667,4,1.6651092223153954,0,4,,,,,
0.5,0,3,0,,1.1666666666666667,3,1.6448536269514726,0,4,,,,,
0,2,0,0,0,1.6666666666666667,4,1.6651092223153954,0,1,,,,,
0.5,2,0,1,0,1.1666666666666667,3,1.6448536269514726,1,1,,,,,
0,2,1,0,0,1.6666666666666667,4,1.6651092223153954,0,2,,,,,
0.5,2,1,0,0,0.8333333333333334,2,1.0364333894937894,0,2,,,,,
0,2,2,,,,,,,3,ALL_FITS_FAILED,,,,
0.5,2,2,,,,,,,3,ALL_FITS_FAILED,,,,
0,2,3,0,0,1.6666666666666667,4,1.6651092223153954,0,4,,,,,
0.5,2,3,0,0,0.8333333333333334,2,1.0364333894937894,0,4,,,,,
0,0,mean,0,,1.388888888888889,3.3333333333333335,1.45555061137486,0,1,,0,,0,1
0.5,0,mean,0,,0.888888888888889,2,1.4487987462535523,0,1,,0,,0,1
0,2,mean,0,0,1.6666666666666667,4,1.6651092223153954,0,1,,0,0,3,1
0.5,2,mean,0.3333333333333333,0,0.9444444444444445,2.3333333333333335,1.2392401353130171,0.3333333333333333,1,,0.33333333333333337,0,3,1
"""


def must_not_run(*args, **kwargs):
    raise AssertionError("replicates ran before the options were checked")


def unchecked_argv(command, tmp_path):
    """Flags of ``command`` whose values are only used after the options
    are checked: analyze's input files do not exist."""
    if command == "analyze":
        missing = str(tmp_path / "missing.csv")
        return ["analyze", "--x", missing, "--y", missing, "--out", str(tmp_path / "out")]
    return ["simulate", "--n", "60", "--p", "8", "--reps", "2", "--seed", "1",
            "--out", str(tmp_path / "out")]


def check_bad_config_value(tmp_path, capsys, command, bad):
    """A bad config value exits with INVALID_CONFIG before any input is
    read or any replicate runs."""
    cfg = {"family": "gaussian", "alpha1": 0.1, "eta": 0.1}
    if command == "simulate":
        cfg["b"] = 0.5
    cfg_path = tmp_path / "cfg.json"
    write_text(cfg_path, json.dumps({**cfg, **bad}))
    assert main(unchecked_argv(command, tmp_path) + ["--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error INVALID_CONFIG: ")
    assert repr(next(iter(bad))) in err
    assert not (tmp_path / "out").exists()


def check_bad_flag(tmp_path, capsys, command, bad, shown):
    """The twin of check_bad_config_value for flags; the message shows the
    bad text and no argparse usage."""
    argv = unchecked_argv(command, tmp_path)
    argv += ["--family", "gaussian", "--alpha1", "0.1", "--eta", "0.1"]
    if command == "simulate":
        argv += ["--b", "0.5"]
    assert main(argv + bad) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error INVALID_CONFIG: ")
    assert shown in captured.err and "usage:" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_out_directory_is_an_io_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "analyze":
        x_path, y_path, _, _ = make_analysis_files(tmp_path)
        argv = ["analyze", "--x", str(x_path), "--y", str(y_path), "--family", "gaussian",
                "--alpha1", "0.1", "--eta", "0.1"]
    else:
        argv = ["simulate", "--family", "gaussian", "--n", "30", "--p", "4", "--b", "0.5",
                "--alpha1", "0", "--eta", "0.1", "--reps", "1", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error IO_ERROR: ") and str(out) in err


@pytest.mark.parametrize("kind", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_bad_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command, kind):
    out = tmp_path / "out"
    if kind == "directory":
        out.mkdir()
    else:
        out = out / "report.json"
    monkeypatch.setattr("pairscreen.cli.run_replicates", must_not_run)
    monkeypatch.setattr("pairscreen.cli.load_csv_matrix", must_not_run)
    argv = unchecked_argv(command, tmp_path)[:-1] + [str(out)]
    argv += ["--family", "gaussian", "--alpha1", "0", "--eta", "0.1"]
    if command == "simulate":
        argv += ["--b", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error IO_ERROR: ") and str(out) in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_alpha1_whose_rate_overflows_is_invalid(tmp_path, capsys, monkeypatch, command):
    # 1.7e308 * log 4 overflows: alpha would be inf, and the report would
    # write "alpha": Infinity, which is not JSON
    monkeypatch.setattr("pairscreen.pipeline.stage1_screen", must_not_run)
    monkeypatch.setattr("pairscreen.simulate.stage1_screen", must_not_run)
    if command == "analyze":
        x_path, y_path, _, y = make_analysis_files(tmp_path, n=60, p=4)
        write_csv(y_path, (y > np.median(y))[:, None], ("y",))
        argv = ["analyze", "--x", str(x_path), "--y", str(y_path)]
    else:
        argv = ["simulate", "--n", "30", "--p", "4", "--b", "0.5", "--reps", "1", "--seed", "1"]
    argv += ["--family", "logistic", "--alpha1", "1.7e308", "--eta", "0.1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error INVALID_CONFIG: ") and "alpha1" in err
    assert not (tmp_path / "out").exists()


def check_fails_without_output(tmp_path, capsys, argv, shown):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(shown)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, shown",
    [
        (None, "error FILE_NOT_FOUND: config file not found"),
        ("{bad", "error INVALID_CONFIG: config file {path}: Expecting property name"),
        ("[1, 2]", "error INVALID_CONFIG: config file {path} must hold a JSON object"),
    ],
)
def test_unreadable_config_file(tmp_path, capsys, text, shown):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        write_text(cfg_path, text)
    argv = unchecked_argv("analyze", tmp_path) + ["--config", str(cfg_path)]
    check_fails_without_output(tmp_path, capsys, argv, shown.format(path=cfg_path))


@pytest.mark.parametrize(
    "extra, shown",
    [
        (["--reps", "0"], "error INVALID_CONFIG: reps must be >= 1, got 0"),
        (["--misspecified", "--p", "2"], "error INVALID_CONFIG: misspecified runs need p >= 3"),
    ],
)
def test_simulate_option_rejected_by_the_library(tmp_path, capsys, extra, shown):
    argv = unchecked_argv("simulate", tmp_path)
    argv += ["--family", "gaussian", "--b", "0.5", "--alpha1", "0", "--eta", "0.1"]
    check_fails_without_output(tmp_path, capsys, argv + extra, shown)


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
        write_csv(tmp_path / "x.csv", x, ("a", "b"))
        write_csv(tmp_path / "y.csv", y[:, None], ("y",))
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

    def test_response_file_with_two_columns(self, tmp_path, capsys):
        x_path, _, _, y = make_analysis_files(tmp_path)
        y_path = tmp_path / "y2.csv"
        write_csv(y_path, np.column_stack([y, y]), ("y", "z"))
        argv = ["analyze", "--x", str(x_path), "--y", str(y_path), "--family", "gaussian",
                "--alpha1", "0.1", "--eta", "0.1", "--out", str(tmp_path / "out")]
        shown = f"error INVALID_CONFIG: response file {y_path} must have exactly one column"
        check_fails_without_output(tmp_path, capsys, argv, shown)

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
        write_csv(tmp_path / "g.csv", g, ("s1", "s2", "s3"))
        write_csv(tmp_path / "y.csv", y[:, None], ("y",))
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
        write_csv(tmp_path / "g.csv", g, tuple(f"s{i}" for i in range(6)))
        write_csv(tmp_path / "y.csv", y[:, None], ("y",))

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

        # the counts decide every pair: (0, 4) has empty cells, (2, 3) a pure one
        one, two = run(1), run(2)
        assert one == two
        doc = json.loads(one[0])
        outcomes = {(rec["j"], rec["k"]): (rec["t_jk"], "") for rec in doc["pairs"]}
        outcomes.update({(rec["j"], rec["k"]): (None, rec["reason"]) for rec in doc["skipped"]})
        assert outcomes[(0, 4)] == (None, "SINGULAR_DESIGN")
        assert outcomes[(2, 3)] == (None, "SEPARATION")
        assert len(outcomes) == 15
        carrier = carrier.astype(float)
        for (j, k), (t, code) in outcomes.items():
            table = cell_table(y, carrier[:, j], carrier[:, k])
            assert code == table_code(*table)
            if not code:
                oracle = log_odds_ratio_oracle(*table)
                assert abs(t - oracle) <= 1e-12 * max(1.0, abs(oracle))
                design = build_stage2_design(carrier[:, j], carrier[:, k])
                full_t, full_code = _fit_outcome(design, y, LOGISTIC, 3)
                assert full_code == "" and abs(t - full_t) <= 1e-8

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        x_path, y_path, x, _ = make_analysis_files(tmp_path)
        x[:, 1] = x[:, 2] = x[:, 0]  # pairs (0, 1), (0, 2), (1, 2) are handed back
        write_csv(x_path, x, tuple(f"v{i}" for i in range(x.shape[1])))

        class InProcessContext:
            """A fork context whose Pool records its size and maps in this process."""

            processes = []

            def Pool(self, processes, initializer, initargs):
                self.processes.append(processes)
                initializer(*initargs)
                return self

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        def run(workers):
            out_dir = tmp_path / f"w{workers}"
            out_dir.mkdir(exist_ok=True)
            argv = ["analyze", "--x", str(x_path), "--y", str(y_path), "--family", "gaussian",
                    "--alpha1", "0", "--eta", "0.1", "--workers", str(workers),
                    "--out", str(out_dir / "r.json")]
            assert main(argv) == 0
            return [(out_dir / name).read_bytes() for name in ("r.json", "r.rejected.csv")]

        one = run(1)  # one block of all 10 pairs
        context = InProcessContext()
        monkeypatch.setattr(pairscreen.pipeline, "_BLOCK_ROWS", 2 * x.shape[0])  # 5 blocks
        monkeypatch.setattr(pairscreen.pipeline, "_WORKER_TASK", ())
        monkeypatch.setattr(pairscreen.pipeline.multiprocessing, "get_context", lambda _: context)

        def usable_cpus_by_mask(cpus):  # more CPUs on the host than in the mask
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)

        def usable_cpus_by_count(cpus):  # a platform without affinity masks
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        for set_cpus in (usable_cpus_by_mask, usable_cpus_by_count):
            context.processes.clear()
            for cpus, workers in ((2, 64), (8, 64), (8, 3)):
                set_cpus(cpus)
                assert run(workers) == one
            assert context.processes == [2, 5, 3]  # min(workers, blocks, CPUs) here

    def test_adjust_file_changes_stage2(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 4))
        adj = rng.standard_normal((50, 2))
        y = x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1] + adj[:, 0] + rng.standard_normal(50)
        write_csv(tmp_path / "x.csv", x, ("a", "b", "c", "d"))
        write_csv(tmp_path / "y.csv", y[:, None], ("y",))
        write_csv(tmp_path / "adj.csv", adj, ("pc1", "pc2"))
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

    def test_too_wide_adjust_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # n = 6 rows cannot fit the 4 + 2 columns of an adjusted stage-2 design
        rng = np.random.default_rng(15)
        write_csv(tmp_path / "x.csv", rng.standard_normal((6, 3)), ("a", "b", "c"))
        write_csv(tmp_path / "y.csv", rng.standard_normal((6, 1)), ("y",))
        write_csv(tmp_path / "adj.csv", rng.standard_normal((6, 2)), ("pc1", "pc2"))
        real_fit, fits = pairscreen.pipeline.fit_glm, []

        def fit_glm(*args):
            fits.append(args)
            return real_fit(*args)

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        code = main(
            [
                "analyze",
                "--x", str(tmp_path / "x.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--adjust", str(tmp_path / "adj.csv"),
                "--family", "gaussian",
                "--alpha1", "0",
                "--eta", "0.1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error INVALID_CONFIG: need n > 6")
        assert fits == []
        assert not (tmp_path / "r.json").exists()

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

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        x_path, y_path, _, _ = make_analysis_files(tmp_path, seed=11)
        base = ["analyze", "--x", str(x_path), "--y", str(y_path)]
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        cfg = {"family": "gaussian", "alpha1": 0.1, "eta": 0.1}
        write_text(tmp_path / "cfg.json", json.dumps(cfg))
        (tmp_path / "bom.cfg.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(cfg).encode())
        assert main(base + ["--config", str(tmp_path / "cfg.json"), "--out", str(plain)]) == 0
        assert main(base + ["--config", str(tmp_path / "bom.cfg.json"), "--out", str(bom)]) == 0
        assert plain.read_text().replace("plain.", "bom.") == bom.read_text()

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
            {"alpha1": "inf"},
            {"out": True},
            {"x": False},
        ],
    )
    def test_bad_config_value_fails_before_loading(self, tmp_path, capsys, bad):
        check_bad_config_value(tmp_path, capsys, "analyze", bad)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (["--eta", "1.5"], "'1.5'"),
            (["--eta", "abc"], "'abc'"),
            (["--workers", "-2"], "'-2'"),
            (["--family", "poisson"], "'poisson'"),
            (["--no-such-flag"], "--no-such-flag"),
            (["--alpha1", "inf"], "'inf'"),
            (["--eta", "nan"], "'nan'"),
        ],
    )
    def test_bad_flag_fails_before_loading(self, tmp_path, capsys, bad, shown):
        check_bad_flag(tmp_path, capsys, "analyze", bad, shown)

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

    def test_metrics_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "m.csv"
        argv = ["simulate", "--family", "logistic", "--n", "10", "--p", "4", "--b", "0,2",
                "--alpha1", "0,0.5", "--eta", "0.3", "--reps", "4", "--seed", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == PINNED_METRICS_CSV.encode()

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

    def test_all_failed_cell_gets_a_blank_mean_row(self, tmp_path):
        # every replicate of b = 0 fails stage 1 with ALL_FITS_FAILED
        def run(b):
            out = tmp_path / f"b{b}.csv"
            argv = ["simulate", "--family", "logistic", "--n", "6", "--p", "4", "--b", b,
                    "--alpha1", "0,0.5", "--eta", "0.1", "--reps", "3", "--seed", "2",
                    "--out", str(out)]
            assert main(argv) == 0
            return out.read_text().splitlines()

        both, alone = run("0,0.8"), run("0.8")
        assert [line for line in both if line.split(",")[1] != "0"] == alone
        means = [line for line in both if line.startswith(("0,0,mean,", "0.5,0,mean,"))]
        header = both[0].split(",")
        for line in means:
            cells = dict(zip(header, line.split(",")))
            assert (cells["failed_reps"], cells["power_reps"], cells["seed"]) == ("3", "0", "2")
            assert all(cells[name] == "" for name in ("fdp", "fdp_se", "omega", "p1", "t_hat"))
        assert len(means) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": [0.4, -1]},
            {"b": "0.4,-1"},
            {"alpha1": "0,-0.1"},
            {"alpha1": [0, 0]},
            {"b": "0.4,inf"},
            {"alpha1": "0,nan"},
            {"beta0": "nan"},
            {"b": [True, 0.5]},
            {"alpha1": [False]},
            {"out": True},
            {"x": False},
        ],
    )
    def test_bad_config_value_fails_before_running(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setattr("pairscreen.cli.run_replicates", must_not_run)
        check_bad_config_value(tmp_path, capsys, "simulate", bad)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (["--b", "0.4,-1"], "'-1'"),
            (["--b", "-1"], "'-1'"),
            (["--alpha1", "0,-0.1"], "'-0.1'"),
            (["--alpha1", "0.1,0.1"], "'0.1,0.1'"),  # a repeated value would merge its cells
            (["--b", "0.4,0.40"], "'0.4,0.40'"),
            (["--b", "inf"], "'inf'"),
            (["--alpha1", "0,inf"], "'inf'"),
            (["--beta0", "nan"], "'nan'"),
            (["--beta0=-inf"], "'-inf'"),
            (["--b", ","], "argument --b: expected at least one number"),
        ],
    )
    def test_bad_flag_fails_before_running(self, tmp_path, capsys, monkeypatch, bad, shown):
        monkeypatch.setattr("pairscreen.cli.run_replicates", must_not_run)
        check_bad_flag(tmp_path, capsys, "simulate", bad, shown)

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
