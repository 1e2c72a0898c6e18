import codecs
import contextlib
import io
import math
import re
import tracemalloc
import warnings
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lpsvm.data
from lpsvm.cli import main, save_model
from lpsvm.core import LabeledDataset, slack
from lpsvm.data import ToySpec, gen_toy, kfold, load_csv, save_csv, standardize
from lpsvm.solver import TrainConfig, train


# ---------------------------------------------------------------- gen_toy

def test_gen_toy_is_deterministic():
    a = gen_toy(ToySpec(seed=42))
    b = gen_toy(ToySpec(seed=42))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_gen_toy_counts_and_labels():
    ds = gen_toy(ToySpec(seed=1, n_per_class=50))
    assert ds.n == 100 and ds.k == 2
    assert int(np.sum(ds.y == 1.0)) == 50
    assert int(np.sum(ds.y == -1.0)) == 50


def test_gen_toy_seed_changes_data():
    assert not np.array_equal(gen_toy(ToySpec(seed=1)).X, gen_toy(ToySpec(seed=2)).X)


def test_gen_toy_wide_separation_trains_to_zero_slack():
    # means 10 standard deviations apart: separable, so p=1 training reaches
    # zero slack on every point
    spec = ToySpec(seed=5, mean_pos=(10.0, 10.0), mean_neg=(0.0, 0.0), cov_scale=1.0)
    ds = gen_toy(spec)
    cfg = TrainConfig(C=10.0, p=1.0, s=100.0, eta=1e-3, max_iter=8000, tol_grad=1e-8)
    model, _ = train(ds, cfg)
    report = slack(model, ds)
    assert report.n_sv == 0
    assert float(report.xi.max()) == 0.0


def test_toy_spec_validation():
    with pytest.raises(ValueError):
        ToySpec(seed=0, n_per_class=0)
    with pytest.raises(ValueError):
        ToySpec(seed=0, cov_scale=0.0)


@pytest.mark.parametrize("seed", [True, 2.5, "3", None, -1])
def test_seeds_reject_what_is_not_an_int_at_least_0(seed):
    # A bool would run as seed 1, None would draw unseeded data, a float or
    # a string would reach numpy's SeedSequence.
    with pytest.raises(ValueError, match="^seed"):
        ToySpec(seed=seed)
    ds = gen_toy(ToySpec(seed=0, n_per_class=5))
    with pytest.raises(ValueError, match="^seed"):
        kfold(ds, 2, seed=seed)


def test_seeds_take_numpy_ints_as_python_ints():
    spec = ToySpec(seed=np.int64(3))
    assert type(spec.seed) is int
    assert np.array_equal(gen_toy(spec).X, gen_toy(ToySpec(seed=3)).X)
    assert np.array_equal(kfold(gen_toy(spec), 2, seed=np.uint8(9)),
                          kfold(gen_toy(spec), 2, seed=9))


def test_gen_toy_cli_names_a_negative_seed(tmp_path):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["gen-toy", "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert err.getvalue() == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("field", ["mean_pos", "mean_neg"])
@pytest.mark.parametrize("value", [(True, False), ("1", "2"), None, (1.0, 2.0, 3.0), (1.0,),
                                   (math.inf, 0.0), (0.0, math.nan), (10**400, 0)])
def test_toy_means_reject_what_is_not_a_pair_of_finite_floats(field, value):
    # A bool pair would run as (1, 0) and strings would be parsed; the rest
    # failed in numpy or later, in LabeledDataset, naming no field.
    with pytest.raises(ValueError, match=f"^{field}[: ]"):
        ToySpec(**{field: value})


def test_toy_means_are_stored_as_float_pairs():
    spec = ToySpec(seed=3, mean_pos=[np.int64(2), np.float32(2.0)], mean_neg=np.zeros(2))
    assert spec.mean_pos == (2.0, 2.0) and spec.mean_neg == (0.0, 0.0)
    assert all(type(v) is float for v in spec.mean_pos + spec.mean_neg)
    assert np.array_equal(gen_toy(spec).X, gen_toy(ToySpec(seed=3)).X)


def test_gen_toy_cli_names_a_nonfinite_mean(tmp_path):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["gen-toy", "--mean-pos", "inf,0", "--out", str(tmp_path / "x.csv")]) == 2
    assert err.getvalue() == "error: mean_pos must be finite, got inf\n"


# -------------------------------------------------------------------- csv

def test_load_csv_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,0.5,1.25\n-1,2.0,0.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and ds.k == 2
    assert ds.X.tolist() == [[0.5, 1.25], [2.0, 0.0]]
    assert ds.y.tolist() == [1.0, -1.0]


def test_load_csv_bad_label_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,0.5\n-1,2.0\n2,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_load_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# a comment\n\n+1,1.0\n# another\n-1,2.0\n")
    ds = load_csv(path)
    assert ds.n == 2


def test_load_csv_header_flag(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,x0\n+1,1.0\n-1,2.0\n")
    assert load_csv(path, has_header=True).n == 2
    with pytest.raises(ValueError, match="line 1"):
        load_csv(path)


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,1.0,2.0\n-1,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_csv_nonfinite_and_malformed(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,inf\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv(path)
    path.write_text("+1,1.0,2.0\n-1,inf,-inf\n")  # the row's sum is NaN, not inf
    with pytest.raises(ValueError, match="line 2: non-finite feature value"):
        load_csv(path)
    path.write_text("+1,abc\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv(path)


def test_load_csv_keeps_finite_values_whose_sum_overflows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,1e308,1e308\n-1,-1e308,-1e308\n")
    ds = load_csv(path)
    assert ds.X.tolist() == [[1e308, 1e308], [-1e308, -1e308]]
    assert ds.y.tolist() == [1.0, -1.0]


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no data"):
        load_csv(path)


def test_load_csv_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/nowhere.csv")


@given(st.integers(1, 8).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        arrays(np.float64, (n, k),
               elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)),
        arrays(np.float64, (n,), elements=st.sampled_from([-1.0, 1.0])),
    ))))
def test_csv_round_trip_is_exact(tmp_path_factory, data):
    ds = LabeledDataset(*data)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def reference_save_csv(dataset, path):
    """The per-element writer `save_csv` replaced: the output must not change."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, row in zip(dataset.y, dataset.X):
            text = ",".join(repr(float(v)) for v in row)
            fh.write(f"{'+1' if label > 0 else '-1'},{text}\n")


def test_save_csv_bytes_match_per_element_writer(tmp_path):
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0.0, 1.0, (40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3)),
                   [[0.0, -0.0, 5e-324], [1e308, -1.7976931348623157e308, 0.1],
                    [1.0, 2.0**53 + 2.0, -1e-310]]])
    ds = LabeledDataset(X, np.where(rng.random(43) < 0.5, 1.0, -1.0))
    save_csv(ds, tmp_path / "new.csv")
    reference_save_csv(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ------------------------------------------------------- csv loader fuzzing

_REFERENCE_LABELS = {"+1": 1.0, "1": 1.0, "-1": -1.0, "\u22121": -1.0}


def reference_load_csv(path, has_header=False):
    """A plain line loop to check `load_csv` against: every field stripped,
    parsed and checked row by row with `math.isfinite` on each value.  Each
    line is decoded on its own from the bytes split at CR, LF and CRLF."""
    values = array("d")
    labels = array("d")
    width = None
    header_pending = has_header
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None
        if not line or line.startswith("#"):
            continue
        if header_pending:
            header_pending = False
            continue
        fields = [f.strip() for f in line.split(",")]
        label = _REFERENCE_LABELS.get(fields[0])
        if label is None:
            raise ValueError(f"{path}: line {lineno}: label must be +1 or -1, got {fields[0]!r}")
        if width is None:
            width = len(fields)
            if width < 2:
                raise ValueError(f"{path}: line {lineno}: expected at least one feature column")
        elif len(fields) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} columns, got {len(fields)}")
        try:
            row = [float(f) for f in fields[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed feature value") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}: line {lineno}: non-finite feature value")
        labels.append(label)
        values.extend(row)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    X = np.frombuffer(values, dtype=np.float64).reshape(len(labels), width - 1)
    return LabeledDataset(X, np.frombuffer(labels, dtype=np.float64))


_GOOD_LABELS = ["+1", "-1", "1", "\u22121", " +1", "-1\t", "\u00a01 "]
_BAD_LABELS = ["", " ", "1.0", "-1.0", "+1.0", "2", "0", "- 1", "+-1", "x", "label", "1_0"]
_ODD_VALUES = ["", " ", "  2.5 ", "\t-0.0", "1_0", "1__0", "_1", "1_", "nan", "-NaN", "inf",
               "-Infinity", "1e999", "-1e999", "abc", "0x10", "1.5.2", "+", "- 1", "1 2",
               "\u0661.\u0665", "\u20031\u2003", "#1"]
_SEPARATORS = [b"\n", b"\n", b"\n", b"\r\n", b"\r"]


# byte sequences that are not UTF-8: a bad start byte, truncated three- and
# two-byte sequences, an encoded surrogate and a code point beyond U+10FFFF
_BAD_BYTES = [b"\xff", b"\xe2", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def csv_files(draw):
    """Loader input: data rows of one width mixed with comment, header and
    runs of blank lines, CRLF and CR line ends, padded and malformed fields,
    bad labels, ragged rows, comments long enough to carry the lines after
    them past the decoder's first block, and lines of any kind with a byte
    sequence that is not UTF-8.  About half the files are clean: good labels
    and values, at least one feature, no bad bytes, and a header line only
    at the top.  Most of those load; the rest stop at a ragged row of clean
    fields, which only the width check tells from a row of a new width."""
    clean = draw(st.booleans())
    width = draw(st.sampled_from([1, 2, 3] if clean else [0, 1, 2, 2, 3, 3]))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10**20, 10**20).map(str),
                       st.floats(-1e3, 1e3).map(lambda v: f" {v!r}\t"))
    odd = 0 if clean else draw(st.integers(0, 30))  # how often a field is odd, in percent
    value = st.integers(0, 99).flatmap(
        lambda r: st.sampled_from(_ODD_VALUES) if r < odd else number)
    label = st.sampled_from(_GOOD_LABELS if clean else _GOOD_LABELS * 6 + _BAD_LABELS)
    kinds = ["row"] * 12 + ["comment", "long comment", "blank", "ragged"]
    kinds += [] if clean else ["header"]
    lines = []
    if clean and draw(st.booleans()):
        lines.append(",".join(["label"] + [f"x{j}" for j in range(width)]))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("row", "ragged"):
            k = width if kind == "row" else draw(st.integers(0, 4))
            fields = [draw(label)] + [draw(value) for _ in range(k)]
            lines.append(",".join(fields))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# x,1", "  #+1,2", "\t# comment"])))
        elif kind == "long comment":
            lines.append("# " + "\u2212" * draw(st.integers(2600, 2800)))
        elif kind == "blank":  # a run of empty lines makes a block of its own
            blank = draw(st.sampled_from(["", " ", "\t ", "\u00a0"]))
            lines += [blank] * draw(st.integers(1, 3))
        else:
            lines.append(",".join(["label"] + [f"x{j}" for j in range(width)]))
    raws = [line.encode("utf-8") for line in lines]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if raws and not clean else 0):
        i = draw(st.integers(0, len(raws) - 1))
        at = draw(st.integers(0, len(raws[i])))
        raws[i] = raws[i][:at] + draw(st.sampled_from(_BAD_BYTES)) + raws[i][at:]
    data = b"".join(raw + draw(st.sampled_from(_SEPARATORS)) for raw in raws)
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data


def _outcome(loader, path, has_header):
    try:
        ds = loader(path, has_header=has_header)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", ds.X.shape, ds.X.tobytes(), ds.y.tobytes()


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(*train(gen_toy(ToySpec(seed=1, n_per_class=5)), TrainConfig(max_iter=20)), path)
    return path


@settings(max_examples=200)
@given(data=csv_files(), has_header=st.booleans())
@example(data=b"+1,1\n\n\n-1,2\n", has_header=False)  # a block of empty lines alone
@example(data=b"+1,1,2\n-1,3\n", has_header=False)  # a ragged row numpy's reader can parse
# Clean files but for one non-finite value: only the finiteness test rejects them.
@example(data=b"+1,1\n-1,inf\n", has_header=False)
@example(data=b"+1,nan\n", has_header=False)
@example(data=b"-1,1e999\n", has_header=False)
def test_load_csv_matches_reference_loop(tmp_path_factory, model_file, data, has_header):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_bytes(data)
    outcome = _outcome(load_csv, path, has_header)
    assert outcome == _outcome(reference_load_csv, path, has_header)
    if outcome[0] == "error":
        # a file the loader rejects is a usage error for every command
        header = ["--has-header"] if has_header else []
        for argv in (["eval", "--model", model_file], ["cv", "--k", "2"]):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*map(str, argv), "--data", str(path), *header])
            assert code == 2, err.getvalue()
    # Blocks of a line or a few lines mix numpy's reader and the per-line
    # loop in one file: a width set by either is checked by the other, and
    # line numbers run on across both.
    for block in (1, 64):
        with mock.patch.object(lpsvm.data, "_BLOCK", block), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(load_csv, path, has_header) == outcome, block


@pytest.fixture(scope="module")
def multiblock_csv(tmp_path_factory):
    """A clean file of about 3.4 MB, four of the loader's blocks."""
    rng = np.random.default_rng(17)
    ds = LabeledDataset(rng.normal(0.0, 1.0, (20_000, 8)),
                        np.where(rng.random(20_000) < 0.5, 1.0, -1.0))
    path = tmp_path_factory.mktemp("blocks") / "d.csv"
    save_csv(ds, path)
    return path, ds


def test_load_csv_reads_every_clean_block_with_numpys_reader(multiblock_csv, monkeypatch):
    # A numpy that handed the label converter bytes (numpy 1.x without
    # encoding=None) would send every block to the per-line loop, silently.
    path, ds = multiblock_csv
    taken = []

    def spy(lines, width, read_block=lpsvm.data._read_block):
        block = read_block(lines, width)
        taken.append(block is not None)
        return block

    monkeypatch.setattr(lpsvm.data, "_read_block", spy)
    back = load_csv(path)
    assert len(taken) >= 3 and all(taken)
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)


def test_load_csv_peak_memory_is_one_copy_of_the_data(tmp_path, multiblock_csv, monkeypatch):
    # The loader fills the dataset's own X and y, which the dataset keeps
    # without a copy, so the peak is one X and y, LabeledDataset's isfinite
    # mask (an eighth of X) and a block of text and rows; a table and a copy
    # of its columns would be twice the data.  The first block, with its
    # comment and header, goes through the per-line loop, the rest through
    # numpy's reader.
    source, ds = multiblock_csv
    path = tmp_path / "d.csv"
    path.write_text("# a comment\nlabel" + ",x" * ds.k + "\n" + source.read_text())
    monkeypatch.setattr(lpsvm.data, "_BLOCK", 1 << 16)  # about 50 blocks
    tracemalloc.start()
    try:
        back = load_csv(path, has_header=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
    assert peak <= 1.35 * (ds.X.nbytes + ds.y.nbytes)


@pytest.mark.parametrize("bad, message", [
    ("-1" + ",0.5" * 7 + ",nan", "non-finite feature value"),
    ("+1" + ",0.5" * 7, "expected 9 columns, got 8"),
    ("x" + ",0.5" * 8, "label must be"),
    ("\ufeff+1" + ",0.5" * 8, "label must be"),  # a BOM is dropped only at the start
])
def test_load_csv_names_a_bad_line_in_the_last_block(tmp_path, multiblock_csv, bad, message):
    # The blocks before it go through numpy's reader, so the line number
    # must run on across them.
    lines = multiblock_csv[0].read_text().splitlines(keepends=True)
    lines.insert(len(lines) - 3, bad + "\n")
    path = tmp_path / "d.csv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {len(lines) - 3}: {message}"):
        load_csv(path)


@pytest.mark.parametrize("text", [
    "+1,1,2\n-1,3\n",  # numpy's reader sets the width and checks it
    "+1,1_0,2\n-1,3\n",  # the per-line loop sets it, the reader checks it
    "+1,1,2\n-1,3_0\n",  # the reader sets it, the loop checks it
])
def test_load_csv_checks_the_width_across_blocks(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with mock.patch.object(lpsvm.data, "_BLOCK", 1):  # a block per line
        with pytest.raises(ValueError, match="line 2: expected 3 columns, got 2"):
            load_csv(path)


def test_load_csv_of_blank_lines_warns_nothing(tmp_path):
    # numpy's reader skips empty lines and warns when it finds no row
    path = tmp_path / "d.csv"
    path.write_text("\n\n\r\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)


def test_load_csv_reports_first_of_several_bad_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,1.0,2.0\n-1,nan,1.0\n+1,3.0\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_csv(path)
    path.write_text("+1,1.0,2.0\n-1,1e999,1.0\n+1,inf,x\n2,1,1\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_csv(path)
    # a row that fails to parse part-way is malformed, whatever it parsed
    path.write_text("+1,1.0,2.0\n-1,inf,x\n")
    with pytest.raises(ValueError, match="line 2: malformed"):
        load_csv(path)


def test_load_csv_undecodable_line_names_line(tmp_path, model_file):
    path = tmp_path / "d.csv"
    path.write_bytes(b"+1,1.0\n-1,\xff2.0\n")
    with pytest.raises(ValueError, match="d.csv: line 2: not valid UTF-8"):
        load_csv(path)
    for argv in (["eval", "--model", model_file], ["cv", "--k", "2"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main([*map(str, argv), "--data", str(path)]) == 2
        assert "line 2" in err.getvalue()
    # CR and CRLF end lines, as in text mode; lines past the decoder's
    # first block are counted too
    path.write_bytes(b"+1,1.0\r\n-1,2.0\r" + b"+1,3.0\n" * 3000 + b"-1,\xe2\n")
    with pytest.raises(ValueError, match="line 3003: not valid UTF-8"):
        load_csv(path)
    # an earlier bad line still wins, though the decoder failed before reaching it
    path.write_bytes(b"+1,1.0\nx,2.0\n-1,nan\n-1,\xff\n")
    with pytest.raises(ValueError, match="line 2: label"):
        load_csv(path)
    path.write_bytes(b"+1,1.0\n-1,nan\n-1,x\n-1,\xff\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_csv(path)


@pytest.mark.parametrize("block", [1, lpsvm.data._BLOCK])
@pytest.mark.parametrize("has_header", [False, True])
def test_load_csv_skips_a_leading_bom(tmp_path, monkeypatch, has_header, block):
    monkeypatch.setattr(lpsvm.data, "_BLOCK", block)
    text = (b"label,x0,x1\n" if has_header else b"") + b"+1,0.5,1.25\r\n-1,2.0,0.0\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text)
    bom.write_bytes(codecs.BOM_UTF8 + text)
    outcome = _outcome(load_csv, plain, has_header)
    assert outcome[0] == "ok" and _outcome(load_csv, bom, has_header) == outcome


@pytest.mark.parametrize("text, message", [
    ("+1,1.0\n\ufeff-1,2.0\n", "line 2: label must be +1 or -1, got '\\ufeff-1'"),
    ("+1,1.0\n-1,\ufeff2.0\n", "line 2: malformed feature value"),
    ("\ufeff\ufeff+1,1.0\n", "line 1: label"),  # only the first BOM is dropped
])
def test_load_csv_names_the_line_of_a_bom_past_the_start(tmp_path, model_file, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_csv(path)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["eval", "--model", str(model_file), "--data", str(path)]) == 2
    assert message in err.getvalue()


# ------------------------------------------------------------------ kfold

def test_kfold_exact_division():
    ds = LabeledDataset(np.arange(20.0).reshape(10, 2),
                        [1.0, -1.0] * 5)
    folds = kfold(ds, k=5, seed=0)
    for fold in range(5):
        test_idx = np.flatnonzero(folds == fold)
        assert test_idx.size == 2
        assert set(ds.y[test_idx]) == {-1.0, 1.0}


def test_kfold_is_a_partition():
    ds = gen_toy(ToySpec(seed=4, n_per_class=13))
    folds = kfold(ds, k=4, seed=1)
    seen = np.concatenate([np.flatnonzero(folds == f) for f in range(4)])
    assert sorted(seen.tolist()) == list(range(ds.n))
    for fold in range(4):
        train_idx = set(np.flatnonzero(folds != fold).tolist())
        test_idx = set(np.flatnonzero(folds == fold).tolist())
        assert not train_idx & test_idx
        assert len(train_idx | test_idx) == ds.n


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(6, 30), st.integers(6, 30))
def test_kfold_stratified_balance(k, seed, n_pos, n_neg):
    X = np.arange(float(n_pos + n_neg)).reshape(-1, 1)
    y = np.array([1.0] * n_pos + [-1.0] * n_neg)
    ds = LabeledDataset(X, y)
    folds = kfold(ds, k=k, seed=seed)
    for label in (1.0, -1.0):
        sizes = [int(np.sum((folds == f) & (ds.y == label)))
                 for f in range(k)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == int(np.sum(ds.y == label))


def test_kfold_deterministic_per_seed():
    ds = gen_toy(ToySpec(seed=6, n_per_class=10))
    a = kfold(ds, k=3, seed=9)
    b = kfold(ds, k=3, seed=9)
    c = kfold(ds, k=3, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kfold_returns_a_read_only_intp_array():
    ds = gen_toy(ToySpec(seed=6, n_per_class=10))
    folds = kfold(ds, k=np.int64(3), seed=9)
    assert folds.dtype == np.intp and folds.shape == (ds.n,)
    assert np.array_equal(folds, kfold(ds, k=3, seed=9))
    with pytest.raises(ValueError, match="read-only"):
        folds[0] = 1


def test_kfold_rejects_small_classes_and_k():
    ds = LabeledDataset([[1.0], [2.0], [3.0]], [1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="class -1"):
        kfold(ds, k=2, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        kfold(ds, k=1, seed=0)


# ------------------------------------------------------------ standardize

def test_standardize_fit_statistics():
    ds = gen_toy(ToySpec(seed=7, n_per_class=25))
    (out,) = standardize(ds)
    assert np.allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.X.std(axis=0), 1.0, atol=1e-12)


def test_standardize_applies_train_stats_to_test():
    train_ds = LabeledDataset([[0.0], [2.0]], [1.0, -1.0])  # mean 1, std 1
    test_ds = LabeledDataset([[3.0]], [1.0])
    _, out = standardize(train_ds, test_ds)
    assert out.X.tolist() == [[2.0]]


def test_standardize_constant_feature():
    ds = LabeledDataset([[5.0, 1.0], [5.0, 3.0]], [1.0, -1.0])
    (out,) = standardize(ds)
    assert out.X[:, 0].tolist() == [0.0, 0.0]


def test_standardize_centres_a_constant_feature_whose_mean_is_inexact():
    # the mean of three 0.1s rounds above 0.1 and their std to 1.4e-17, not
    # 0; a column with max = min is constant and becomes exactly 0
    ds = LabeledDataset([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]], [1.0, -1.0, 1.0])
    (out,) = standardize(ds)
    assert out.X[:, 0].tolist() == [0.0, 0.0, 0.0]
    _, other = standardize(ds, LabeledDataset([[0.6, 0.0]], [1.0]))
    assert other.X[0, 0] == 0.6 - 0.1  # centred, not scaled


def test_standardize_scales_features_whose_squares_overflow():
    ds = LabeledDataset([[1e200], [-1e200], [3.0]], [1.0, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (out,) = standardize(ds)
    z = math.sqrt(1.5)  # std = 1e200 * sqrt(2/3), up to the tiny mean
    assert out.X[:, 0].tolist() == pytest.approx([z, -z, 0.0], rel=1e-15, abs=1e-190)


def test_standardize_returns_frozen_copies_bitwise_equal_to_the_formula():
    rng = np.random.default_rng(3)
    X = rng.normal(3.0, 2.0, size=(40, 4))
    X[:, 2] = 5.0  # a constant feature: std 0, divided by 1
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    fit, other = LabeledDataset(X, labels), LabeledDataset(X[::-1] * 2.0, labels)
    mean, std = fit.X.mean(axis=0), fit.X.std(axis=0)
    std[std == 0.0] = 1.0
    for ds, out in zip((fit, other), standardize(fit, other)):
        assert out.X.tobytes() == ((ds.X - mean) / std).tobytes()
        assert not out.X.flags.writeable and not out.y.flags.writeable
        assert not np.shares_memory(out.X, ds.X)
        assert out.y is ds.y  # read-only and owning: kept, not copied


def test_standardize_peak_memory_is_one_matrix_and_its_finiteness_mask():
    # X - mean is the one full-size temporary, divided in place and kept by
    # the dataset; LabeledDataset's isfinite mask adds an eighth of it.
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.normal(size=(20_000, 32)),
                        np.where(rng.random(20_000) < 0.5, 1.0, -1.0))
    tracemalloc.start()
    try:
        standardize(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.X.nbytes


def test_standardize_names_a_feature_whose_standardized_value_overflows():
    # feature 1 is fitted on [1e-300, 2e-300]: 1e300 standardizes to about 2e600
    fit = LabeledDataset([[0.0, 1e-300], [1.0, 2e-300]], [1.0, -1.0])
    far = LabeledDataset([[0.5, 1e300]], [1.0])
    with pytest.raises(ValueError, match="standardized value of feature 1 leaves double range"):
        standardize(fit, far)


def test_standardize_rejects_datasets_of_another_dimension():
    train_ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0]], [1.0, -1.0])
    with pytest.raises(ValueError, match="dimension mismatch: expected k=2, got k=1"):
        standardize(train_ds, LabeledDataset([[3.0]], [1.0]))
