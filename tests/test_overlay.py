"""ingest_overlay's np.loadtxt path against the csv row loop that defines the grammar.

For every input, ingest_overlay must give what the loop alone gives: the same
arrays bit for bit, or the same exception with the same message, and no
warning either way. Files of at most parton.LOOP_MAX_BYTES skip np.loadtxt, so
the tests of the np.loadtxt route on small files patch that limit to 0.
"""

import csv
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledosc import cli, parton

HUGE = 200_000  # characters, past csv.field_size_limit()'s default of 131,072


def outcome(path):
    """(x bytes, values bytes) of the ingested series, or (exception type, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = parton.ingest_overlay(path)
            result = (s.x.tobytes(), s.values.tobytes())
        except Exception as exc:  # noqa: BLE001 - the loop's exception is the expected result
            result = (type(exc), str(exc))
    assert caught == []
    return result


def loop_outcome(path):
    with mock.patch.object(parton, "_load_rows", return_value=None):
        return outcome(path)


def write(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


CASES = {
    "clean": "x,value\n-1,0.5\n0,1.25\n2,0.25\n",
    "whitespace_line": "x,value\n0,1\n   \n1,2\n",
    "blank_lines": "x,value\n\n0,1\n\n\n1,2\n\n",
    "crlf": "x,value\r\n0,1\r\n1,2\r\n",
    "lone_cr": "x,value\r0,1\r1,2\r",
    "mixed_endings": "x,value\n0,1\r\n\r1,2\r3,4\n",
    "quoted": 'x,value\n"0",1\n1,"2"\n',
    "trailing_commas": "x,value\n0,1,\n1,2,\n",
    "empty_first_field": "x,value\n,1\n1,2\n",
    "empty_last_field": "x,value\n0,\n1,2\n",
    "underscore": "x,value\n1_0,1\n20,2\n",
    "hex_float": "x,value\n0x1p3,1\n20,2\n",
    "non_ascii_digit": "x,value\n٣,1\n4,2\n",
    "unicode_space": "x,value\n0,\u20031\n1,2\u2003\n",
    "spaces_tabs": "x,value\n 0 ,\t1\t\n 1, 2\n",
    "form_feed": "x,value\n0,\x0c1\n1,2\x0c\n",
    "form_feed_inside": "x,value\n0,1\n1,2\x0c3\n",
    "number_forms": "x,value\n+.5,5.\n1E+05,-0\n",
    "nan": "x,value\n0,nan\n1,2\n",
    "infinity": "x,value\n0,1\nInfinity,2\n",
    "overflow": "x,value\n0,1\n1,1e999\n",
    "nul": "x,value\n0\x00,1\n1,2\n",
    "hash": "x,value\n0,1#c\n1,2\n",
    "leading_hash": "x,value\n#0,1\n1,2\n",
    "one_row": "x,value\n0,1\n",
    "header_only": "x,value\n",
    "empty_file": "",
    "bad_header": "a,b\n0,1\n1,2\n",
    # np.loadtxt skips one line of header; the csv module reads this one from two
    "header_spans_lines": '"x\n",value\n0,1\n1,2\n',
    "short_last_row": "x,value\n0,1\n1,2\n3\n",
    "three_columns": "x,value\n0,1,2\n1,2,3\n",
    "one_column": "x,value\n0\n1\n",
    "not_increasing": "x,value\n0,1\n0,2\n1,3\n",
    "decreasing": "x,value\n1,1\n0,2\n",
    "huge_whitespace": "x,value\n0,1\n" + " " * HUGE + "1,2\n",
    "huge_digits": "x,value\n0,1\n1,2" + "0" * HUGE + "\n",
    "huge_zeros": "x,value\n0,1\n" + "0" * HUGE + "1,2\n",
    "huge_header": "x,value" + " " * HUGE + "\n0,1\n1,2\n",
    "x_span_overflows": "x,value\n-1e308,1\n1e308,2\n",
}

# sends every file, however small, through np.loadtxt first
LOADTXT_ALWAYS = mock.patch.object(parton, "LOOP_MAX_BYTES", 0)


@LOADTXT_ALWAYS
@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_matches_the_loop(name, tmp_path):
    path = write(tmp_path / "ov.csv", CASES[name])
    assert outcome(path) == loop_outcome(path)


@LOADTXT_ALWAYS
@pytest.mark.parametrize("name", ["clean", "blank_lines", "crlf", "lone_cr", "mixed_endings",
                                  "spaces_tabs", "unicode_space", "form_feed", "number_forms",
                                  "x_span_overflows"])
def test_clean_files_take_the_fast_path(name, tmp_path):
    path = write(tmp_path / "ov.csv", CASES[name])
    with mock.patch.object(parton, "_read_rows", side_effect=AssertionError("row loop entered")):
        parton.ingest_overlay(path)


def sized_overlay(size, bad):
    """Overlay text of exactly ``size`` bytes; with ``bad``, its middle row cannot be parsed."""
    rows = [f"{i:05d},0.25\n" for i in range((size - 32) // 11)]
    if bad:
        rows[len(rows) // 2] = f"{len(rows) // 2},abc\n"
    text = "x,value\n" + "".join(rows)
    last = f"{len(rows)},0.5"
    return text + last + "0" * (size - len(text) - len(last) - 1) + "\n"


@pytest.mark.parametrize("past", [0, 1], ids=["at-the-limit", "one-byte-past"])
@pytest.mark.parametrize("bad", [False, True], ids=["clean", "malformed"])
def test_the_size_choice_keeps_the_outcome(past, bad, tmp_path):
    path = write(tmp_path / "ov.csv", sized_overlay(parton.LOOP_MAX_BYTES + past, bad))
    assert path.stat().st_size == parton.LOOP_MAX_BYTES + past
    with mock.patch.object(parton, "_load_rows", wraps=parton._load_rows) as load:
        result = outcome(path)
    assert load.called == bool(past)
    assert result == loop_outcome(path)
    assert result[0] is parton.OverlayParseError if bad else isinstance(result[0], bytes)


@pytest.mark.parametrize("name", ["huge_whitespace", "huge_digits", "huge_zeros"])
def test_huge_field_names_its_line(name, tmp_path):
    path = write(tmp_path / "ov.csv", CASES[name])
    limit = csv.field_size_limit()
    with pytest.raises(parton.OverlayParseError, match=rf"^line 3: field larger than field limit \({limit}\)$"):
        parton.ingest_overlay(path)


@pytest.mark.parametrize("limit", [0, parton.LOOP_MAX_BYTES], ids=["loadtxt-first", "loop-only"])
@pytest.mark.parametrize("text", ['"x\n",value\n0,1\n1,2\n2,abc\n', 'x,value\n0,"1\n"\n1,2\n2,abc\n'],
                         ids=["two-line-header", "two-line-row"])
def test_a_row_after_a_field_over_two_lines_names_its_file_line(text, limit, tmp_path):
    # the row 2,abc sits on line 5 of the file, though it is the csv module's fourth record
    path = write(tmp_path / "ov.csv", text)
    with mock.patch.object(parton, "LOOP_MAX_BYTES", limit):
        with pytest.raises(parton.OverlayParseError, match=r"^line 5: could not parse \['2', 'abc'\]$"):
            parton.ingest_overlay(path)


def test_large_file_with_a_two_line_header_names_the_bad_row_on_the_cli(tmp_path, capsys):
    # past LOOP_MAX_BYTES np.loadtxt reads the file first; a header the csv module reads
    # from two lines and a malformed row hand it back to the row loop, which names the
    # row's line in the file (the header is lines 1 and 2)
    rows = "".join(f"{i},0.25\n" if i != 2500 else f"{i},abc\n" for i in range(4000))
    path = write(tmp_path / "bad_overlay.csv", '"x\n",value\n' + rows)
    assert path.stat().st_size > parton.LOOP_MAX_BYTES
    out = tmp_path / "bad.csv"
    assert cli.main(["parton", "--eta=0.7", f"--overlay={path}", f"--out={out}"]) == 1
    assert capsys.readouterr() == ("", "coupledosc: error: line 2503: could not parse ['2500', 'abc']\n")
    assert not out.exists()


def test_huge_field_exits_1_on_the_cli(tmp_path, capsys):
    path = write(tmp_path / "ov.csv", CASES["huge_whitespace"])
    out = tmp_path / "out.csv"
    assert cli.main(["parton", "--eta=0", f"--overlay={path}", f"--out={out}"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"coupledosc: error: line 3: field larger than field limit \(\d+\)\n", err)
    assert not out.exists()


def test_huge_header_field_names_line_1(tmp_path):
    path = write(tmp_path / "ov.csv", CASES["huge_header"])
    with pytest.raises(parton.OverlayParseError, match="^line 1: field larger than field limit"):
        parton.ingest_overlay(path)


def test_header_only_prints_only_the_error(tmp_path, capfd):
    path = write(tmp_path / "ov.csv", CASES["header_only"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["parton", "--eta=0", f"--overlay={path}", f"--out={tmp_path / 'o.csv'}"]) == 1
    out, err = capfd.readouterr()
    assert (out, err) == ("", f"coupledosc: error: {path}: overlay needs at least 2 rows, got 0\n")


def test_large_clean_file_never_enters_the_row_loop(tmp_path):
    rng = np.random.default_rng(5)
    x = -6.0 + np.cumsum(rng.uniform(0.6e-4, 1.8e-4, 100_000))
    v = rng.uniform(0.0, 0.6, x.size)
    path = tmp_path / "ov.csv"
    path.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), v.tolist())),
                    encoding="utf-8", newline="")
    with mock.patch.object(parton, "_read_rows", side_effect=AssertionError("row loop entered")):
        series = parton.ingest_overlay(path)
    assert series.x.tobytes() == x.tobytes()
    assert series.values.tobytes() == v.tobytes()


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 7, 8])
def test_lines_fit_is_sound_at_small_limits(limit, tmp_path):
    for text in ("", "a", "ab\n", "abc\r\nde", "abcdefghij", "ab\ncdefghijk\rlm", "ééé\n"):
        path = write(tmp_path / "t.csv", text)
        lines = re.split("\r|\n", text)
        if parton._lines_fit(path, limit):
            assert max(map(len, lines)) <= limit
        if max(len(line.encode()) for line in lines) < (limit + 1) // 2:
            assert parton._lines_fit(path, limit)


# --- generated overlay texts ------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_NUMBER = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: f"{v:.15g}"),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.3f}"),
    st.integers(-10**20, 10**20).map(str),
)
_ODD = st.sampled_from(["", " ", "\t", "1_0", "0x1p3", "٣", "+.5", "5.", "1E+05", "-0", "nan",
                        "-Infinity", '"1"', "#", "\x00", "\x0c", " ", "1e999", "e5", "--1", "1 2"])
_FIELD = st.one_of(_NUMBER, _ODD, st.tuples(_ODD, _NUMBER, _ODD).map("".join))
_EOL = st.sampled_from(["\n", "\r\n", "\r"])
_MESSY_LINE = st.lists(_FIELD, max_size=3).map(",".join)


@st.composite
def overlay_texts(draw):
    header = draw(st.sampled_from(["x,value", "x,value", " x , value ", "x,val"]))
    xs = sorted(draw(st.lists(st.floats(-1e6, 1e6), max_size=12, unique=True)))
    lines = [f"{x!r},{draw(_NUMBER)}" if draw(st.booleans()) else f"{x:.15g},{draw(_NUMBER)}" for x in xs]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_MESSY_LINE))
    eols = [draw(_EOL) for _ in range(len(lines) + 1)]
    body = "".join(line + eol for line, eol in zip([header] + lines, eols))
    return body if draw(st.booleans()) else body.rstrip("\r\n")


@LOADTXT_ALWAYS
@settings(max_examples=300, deadline=None)
@given(overlay_texts())
def test_generated_overlays_match_the_loop(text):
    with tempfile.TemporaryDirectory() as td:
        path = write(Path(td) / "ov.csv", text)
        assert outcome(path) == loop_outcome(path)
