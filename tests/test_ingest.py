import csv
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_table, reference_scenario
from oracles import (block_tallies, csv_cells, csv_rows,
                     longest_prefix_block, parse_rows, path_passes)

from phyenergy import readers
from phyenergy.costmodel import EnergyParams, build_report
from phyenergy.errors import ConfigError, MeasurementError
from phyenergy.ingest import (MeasuredReport, MeasuredRow, PathFilter,
                              assign_block, compare, load_filter_config,
                              measured_cycles, parse_measurement,
                              parse_measurement_text, rows_from_tallies,
                              serialize_measurement, unattributed_cycles,
                              write_measurement)
from phyenergy.opcount import (BlockId, DataClass, OperationTally, OpKind,
                               tally_pipeline)
from phyenergy.readers import read_csv_rows

HEADER = "function_path,block,operator,data_type,shape,count\n"

SMALL = HEADER + """\
nr5g/dlsch/crc,A,XOR,logical_scalar,32,596
nr5g/dlsch/crc,A,AND,logical_scalar,32,596
nr5g/scrambling,B,XOR,logical_vector,64,4000
nr5g/helpers/pad,,SET,int_scalar,1,12
"""

# SMALL's rows as the writer's records.
SMALL_ROWS = [
    MeasuredRow("nr5g/dlsch/crc", BlockId.A, OpKind.XOR,
                DataClass.LOGICAL_SCALAR, "32", 596),
    MeasuredRow("nr5g/dlsch/crc", BlockId.A, OpKind.AND,
                DataClass.LOGICAL_SCALAR, "32", 596),
    MeasuredRow("nr5g/scrambling", BlockId.B, OpKind.XOR,
                DataClass.LOGICAL_VECTOR, "64", 4000),
    MeasuredRow("nr5g/helpers/pad", None, OpKind.SET, DataClass.INT_SCALAR,
                "1", 12),
]

# SMALL's kept rows summed per block; its row in no block under None.
SMALL_A = {(OpKind.XOR, DataClass.LOGICAL_SCALAR): 596,
           (OpKind.AND, DataClass.LOGICAL_SCALAR): 596}
SMALL_B = {(OpKind.XOR, DataClass.LOGICAL_VECTOR): 4000}
SMALL_PAD = {(OpKind.SET, DataClass.INT_SCALAR): 12}


def tallies(**by_block):
    """Expected ``block_tallies``: counts keyed by block letter, or by
    ``none`` for the unattributed rows."""
    return {None if name == "none" else BlockId(name):
            OperationTally(counts) for name, counts in by_block.items()}


# ---------------------------------------------------------------------------
# Parsing


def test_parse_small_report():
    report = parse_measurement_text(SMALL)
    assert report.meta.rows_seen == 4
    assert report.meta.rows_kept == 4
    assert report.meta.rows_unattributed == 1
    assert report.block_tallies == tallies(A=SMALL_A, B=SMALL_B,
                                           none=SMALL_PAD)


def test_parse_requires_header():
    with pytest.raises(MeasurementError, match="header"):
        parse_measurement_text("a,b,c\n1,2,3\n")


def test_parse_empty_file():
    with pytest.raises(MeasurementError, match="empty"):
        parse_measurement_text("# only comments\n")


def test_parse_errors_carry_row_numbers():
    bad_op = HEADER + "f,A,NOP,int_scalar,1,5\n"
    with pytest.raises(MeasurementError, match=r":2: unknown operator"):
        parse_measurement_text(bad_op)
    bad_type = HEADER + "\n\nf,A,ADD,int128,1,5\n"
    with pytest.raises(MeasurementError, match=r":4: unknown data_type"):
        parse_measurement_text(bad_type)
    bad_count = HEADER + "f,A,ADD,int_scalar,1,many\n"
    with pytest.raises(MeasurementError, match=r":2: count"):
        parse_measurement_text(bad_count)
    negative = HEADER + "f,A,ADD,int_scalar,1,-4\n"
    with pytest.raises(MeasurementError, match=r":2: count must be >= 0"):
        parse_measurement_text(negative)
    bad_block = HEADER + "f,Q,ADD,int_scalar,1,5\n"
    with pytest.raises(MeasurementError, match=r":2: unknown block"):
        parse_measurement_text(bad_block)
    short_row = HEADER + "f,A,ADD\n"
    with pytest.raises(MeasurementError, match="expected 6 columns"):
        parse_measurement_text(short_row)


def test_parse_block_letter_case_insensitive():
    report = parse_measurement_text(HEADER + "f,h,ADD,int_scalar,1,5\n")
    assert report.block_tallies == tallies(
        H={(OpKind.ADD, DataClass.INT_SCALAR): 5})


def test_parse_missing_file(tmp_path):
    with pytest.raises(MeasurementError, match="not found"):
        parse_measurement(tmp_path / "gone.csv")


def test_roundtrip_through_file(tmp_path):
    report = parse_measurement_text(SMALL)
    path = tmp_path / "m.csv"
    write_measurement(SMALL_ROWS, path)
    assert path.read_text(encoding="utf-8") == SMALL
    again = parse_measurement(path)
    assert again.block_tallies == report.block_tallies
    assert again.meta == report.meta._replace(source=str(path))


# ---------------------------------------------------------------------------
# Filtering and attribution


def test_filter_allow_deny_semantics():
    f = PathFilter(allow=("nr5g/",), deny=("nr5g/internal/",))
    assert f.matches("nr5g/dlsch/crc")
    assert not f.matches("nr5g/internal/scratch")
    assert not f.matches("matlab/startup")
    assert PathFilter().matches("anything/at/all")


def test_filter_applied_during_parse():
    f = PathFilter(allow=("nr5g/",), deny=("nr5g/helpers/",))
    report = parse_measurement_text(SMALL, path_filter=f)
    assert report.meta.rows_seen == 4
    assert report.meta.rows_kept == 3
    assert report.meta.rows_filtered == 1
    assert report.meta.rows_unattributed == 0
    assert report.block_tallies == tallies(A=SMALL_A, B=SMALL_B)


def test_filter_is_idempotent():
    f = PathFilter(allow=("nr5g/",), deny=("nr5g/helpers/",))
    once = parse_measurement_text(SMALL, path_filter=f)
    kept = [row for row in SMALL_ROWS if f.matches(row.function_path)]
    again = parse_measurement_text(serialize_measurement(kept),
                                   path_filter=f)
    assert again.block_tallies == once.block_tallies
    assert again.meta == once.meta._replace(rows_seen=3, rows_filtered=0)


def test_longest_prefix_attribution():
    block_map = {"nr5g/": BlockId.A, "nr5g/scramb": BlockId.B}
    assert assign_block("nr5g/scrambling", block_map) is BlockId.B
    assert assign_block("nr5g/dlsch/crc", block_map) is BlockId.A
    assert assign_block("other/", block_map) is None


def test_path_filter_takes_any_iterable_of_prefixes():
    f = PathFilter(allow=["nr5g/"], deny=(p for p in ["nr5g/internal/"]))
    assert f == PathFilter(allow=("nr5g/",), deny=("nr5g/internal/",))
    assert (f.allow, f.deny) == (("nr5g/",), ("nr5g/internal/",))
    assert f.matches("nr5g/dlsch/crc")
    assert not f.matches("nr5g/internal/scratch")
    assert not f.matches("matlab/startup")
    hash(f)


@pytest.mark.parametrize("kwargs", [{"allow": "phy/"}, {"deny": "phy/"}],
                         ids=["allow", "deny"])
def test_path_filter_rejects_a_single_string(kwargs):
    """A string is an iterable of one-character prefixes: ``allow="phy/"``
    would admit ``hello`` and ``/etc``."""
    with pytest.raises(TypeError, match="not a string"):
        PathFilter(**kwargs)


def test_path_filter_is_a_tuple_whose_replace_keeps_its_rules():
    f = PathFilter(allow=["nr5g/"])
    assert f == (("nr5g/",), ()) and hash(f) == hash((("nr5g/",), ()))
    assert f._replace(deny=["x/"]) == PathFilter(("nr5g/",), ("x/",))
    with pytest.raises(TypeError, match="not a string"):
        f._replace(deny="x/")


# Small alphabets, so that prefixes nest, repeat and outgrow the paths.
_PATH_TEXT = st.text(alphabet="ab/é中", max_size=6)
_BLOCK_MAPS = st.dictionaries(_PATH_TEXT, st.sampled_from(list(BlockId)),
                              max_size=8)


@given(block_map=_BLOCK_MAPS, path=_PATH_TEXT)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_indexed_attribution_equals_the_prefix_loop(block_map, path):
    assert (assign_block(path, block_map)
            is longest_prefix_block(path, block_map))


@pytest.mark.parametrize("path, block", [
    ("", BlockId.A), ("x", BlockId.A), ("ab", BlockId.B), ("abc", BlockId.C),
    ("abcd", BlockId.C), ("abé", BlockId.D), ("a", BlockId.A),
])
def test_attribution_with_empty_nested_and_long_prefixes(path, block):
    block_map = {"": BlockId.A, "ab": BlockId.B, "abc": BlockId.C,
                 "abé": BlockId.D, "abcdefgh": BlockId.E}
    assert assign_block(path, block_map) is block
    assert longest_prefix_block(path, block_map) is block


@given(allow=st.lists(_PATH_TEXT, max_size=3),
       deny=st.lists(_PATH_TEXT, max_size=3), path=_PATH_TEXT)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tuple_filter_equals_the_prefix_loop(allow, deny, path):
    assert PathFilter(allow, deny).matches(path) == path_passes(path, allow,
                                                                deny)


# Rows over a few paths, blocks, operators and data types, so that keys
# repeat; counts include zero, whose rows still name their block.
_ROWS = st.lists(st.builds(
    MeasuredRow, function_path=st.sampled_from(["ab/x", "a/y", "q", ""]),
    block=st.none() | st.sampled_from(list(BlockId)),
    operator=st.sampled_from([OpKind.ADD, OpKind.XOR, OpKind.FLOP]),
    data_type=st.sampled_from([DataClass.INT_SCALAR, DataClass.STRUCT]),
    shape=st.just(""), count=st.integers(min_value=0, max_value=10 ** 30)),
    max_size=12)


@given(rows=_ROWS, block_map=_BLOCK_MAPS, allow=st.lists(_PATH_TEXT,
                                                         max_size=2))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_tallies_equal_the_grouping_loop(rows, block_map, allow):
    """The parse filters, attributes and groups the rows as the plain loops
    over them do, attributed and unattributed rows alike."""
    report = parse_measurement_text(serialize_measurement(rows),
                                    path_filter=PathFilter(allow),
                                    block_map=block_map)
    kept = [row._replace(block=row.block or longest_prefix_block(
                row.function_path, block_map))
            for row in rows if path_passes(row.function_path, allow, ())]
    assert report.block_tallies == block_tallies(kept)
    assert report.meta[1:] == (
        len(rows), len(kept), len(rows) - len(kept),
        sum(row.block is None for row in kept))


# Lines as the reader sees them: no line break (splitlines removes those),
# stripped, non-empty and not a comment.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_CELL_CHARS = st.sampled_from(list(", \t#'\\;a1é\u00a0\0\u3000")) | \
    st.characters(blacklist_characters='"' + _LINE_BREAKS)


def _read_lines(texts):
    return texts.map(str.strip).filter(lambda line: line and line[0] != "#")


_LINES = _read_lines(st.text(_CELL_CHARS, min_size=1, max_size=30))
_QUOTED_LINES = _read_lines(st.lists(st.sampled_from(
    ['"', '""', ",", "a", " ", "\0"]), min_size=1).map("".join))


# Lines with NUL go through csv, like quoted ones.
@given(line=_LINES.filter(lambda line: "\0" not in line))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_a_quote_free_line_splits_like_csv(line):
    assert line.split(",") == csv_cells(line)


@given(line=_LINES | _QUOTED_LINES)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_csv_reader_cells_match_the_csv_module(line):
    """The line is read as a header that must equal csv's stripped cells;
    where csv itself fails, the reader fails as a MeasurementError."""
    try:
        expected = [cell.strip() for cell in csv_cells(line)]
    except csv.Error:
        with pytest.raises(MeasurementError, match=r"^s:1: "):
            list(read_csv_rows(line, "s", ["x"], "file", MeasurementError))
        return
    assert list(read_csv_rows(line, "s", expected, "file",
                              MeasurementError)) == []


@pytest.mark.parametrize("quote", ["", '"'], ids=["bare", "quoted"])
def test_field_size_limit_is_the_same_on_both_paths(quote):
    limit = csv.field_size_limit()
    for size, ok in ((limit, True), (limit + 1, False)):
        fpath = quote + "p" * size + quote
        text = HEADER + f"{fpath},,ADD,int_scalar,1,5\n"
        if ok:
            # The path reaches attribution as the whole, unquoted cell.
            report = parse_measurement_text(
                text, block_map={"p" * size: BlockId.B})
            assert report.block_tallies == tallies(
                B={(OpKind.ADD, DataClass.INT_SCALAR): 5})
        else:
            with pytest.raises(MeasurementError) as exc:
                parse_measurement_text(text)
            assert str(exc.value) == (
                f"<string>:2: field larger than field limit ({limit})")


# Every separator str.splitlines() knows; "\r\n" is the one of two
# characters, so a cut between its halves would add a line.
_SEPARATORS = ["\r\n", *_LINE_BREAKS]
_ROW_TEXTS = st.sampled_from(["a,b", " a , b ", "x,y", "#c", "", "a", "a,b,c",
                              '"a,b",c', '"a', "\0,b", "\r", "\n"])
_CHUNKED_TEXTS = (
    st.lists(st.tuples(_ROW_TEXTS, st.sampled_from(_SEPARATORS)), max_size=40)
    .map(lambda parts: "".join(line + sep for line, sep in parts))
    | st.lists(st.sampled_from([",", '"', "a", " ", "#", "\0", *_SEPARATORS]),
               max_size=200).map("".join))


def _outcome(rows):
    """The rows an iterator yields, and the message it stops with."""
    read = []
    try:
        for row in rows:
            read.append(row)
    except MeasurementError as exc:
        return read, str(exc)
    return read, None


@given(text=_CHUNKED_TEXTS, chunk=st.integers(min_value=1, max_value=64))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_chunked_lines_are_the_splitlines_lines(text, chunk):
    """Cut anywhere, the reader yields the rows and raises the error of a
    loop over ``text.splitlines()``."""
    args = (text, "s", ["a", "b"], "file", MeasurementError)
    with mock.patch.object(readers, "CHUNK_CHARS", chunk):
        assert _outcome(read_csv_rows(*args)) == _outcome(csv_rows(*args))


# Rows of the plain kind, mostly, and lines of every kind that makes a
# chunk not plain, under a six-column header of short names.
_SHORT_HEADER = ["a", "b", "c", "d", "e", "f"]
_PLAIN_LINES = st.lists(st.sampled_from(["p", "q/r", "A", "", "-1", "x"]),
                        min_size=6, max_size=6).map(",".join)
_ODD_LINES = st.sampled_from([
    '"p,q",b,c,d,e,f', 'p,"A",c,d,e,f', '"p', "p,\0,c,d,e,f",
    "#p,b,c,d,e,f", "p,b#,c,d,e,f", "", "  ",
    " p ,b,c,d,e,f", "p,\tb,c,d,e,f", "p,b,c,d,e,\xa0f", "p,b,c,d,e,\u3000",
    "p,b,c,d,e", "p,b,c,d,e,f,g", "p,b,c,d,e,fffffffffffffffffffffffffffff",
    # Lines of 5 and 7 cells side by side hold 6 cells a line on average.
    "p,b,c,d,e\np,b,c,d,e,f,g", "p,b,c,d,e,f,g\n,,,,"])
_ROW_SEPARATORS = st.sampled_from(["\n"] * 5 + ["\r\n", "\x85", "\u2028"])


@st.composite
def _reports(draw):
    lines = draw(st.lists(st.sampled_from(["# note", ""]), max_size=2))
    lines.append(",".join(_SHORT_HEADER))
    lines += draw(st.lists(st.one_of(_PLAIN_LINES, _PLAIN_LINES, _ODD_LINES),
                           max_size=60))
    text = "".join(line + draw(_ROW_SEPARATORS) for line in lines)
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


@given(text=_reports(), chunk=st.integers(min_value=1, max_value=256),
       limit=st.none() | st.integers(min_value=1, max_value=40))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_the_reader_equals_the_line_loop(text, chunk, limit):
    """Plain chunks split in bulk and the others a line at a time, the
    reader yields the rows and raises the error of csv over every line,
    at every chunk size and csv field limit."""
    args = (text, "s", _SHORT_HEADER, "file", MeasurementError)
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with mock.patch.object(readers, "CHUNK_CHARS", chunk):
            assert _outcome(read_csv_rows(*args)) == _outcome(csv_rows(*args))
    finally:
        csv.field_size_limit(default)


def test_a_blank_line_is_no_row_of_a_one_column_file():
    """A blank line has the comma count of a one-column row, and is still
    skipped."""
    rows = read_csv_rows("x\na\n\nb\n", "s", ["x"], "file", MeasurementError)
    assert list(rows) == [(2, ["a"]), (4, ["b"])]


def test_a_crlf_report_file_is_read_in_bulk(tmp_path):
    """A report file with CRLF line ends reaches the reader with "\\n" ends,
    so every chunk is split in bulk, and it gives its "\\n" twin's report."""
    lf = HEADER + "".join(f"phy/a/f{i},,ADD,int_scalar,4x4,{i}\n"
                          for i in range(40))
    path = tmp_path / "crlf.csv"
    path.write_bytes(lf.replace("\n", "\r\n").encode())
    block_map = {"phy/a/": BlockId.A}
    with mock.patch.object(readers, "_line_cells",
                           wraps=readers._line_cells) as spy:
        report = parse_measurement(path, None, block_map)
    assert spy.call_count == 1          # the header
    assert report == parse_measurement_text(lf, str(path), None, block_map)


def _parse_outcome(parse, *args):
    try:
        return parse(*args)
    except MeasurementError as exc:
        return str(exc)


_REPORT_PATHS = ["phy/a/x", "phy/a/inner/y", "phy/b", "phy/debug/z",
                 "ext/q", "other"]
_REPORT_MAP = {"phy/a/": BlockId.A, "phy/a/inner/": BlockId.B,
               "phy/b": BlockId.C, "ext/": BlockId.D}
# No prefix; "" (every path); a key longer than every path; three nested
# prefix lengths.
_REPORT_MAPS = [_REPORT_MAP, {}, {"": BlockId.E, "phy/a/": BlockId.A},
                {"phy/a/inner/y/z": BlockId.F, "phy/b": BlockId.G},
                {"phy/": BlockId.H, "phy/a/": BlockId.A,
                 "phy/a/inner/": BlockId.B}]
# Bad cells by column: block, operator, data_type and count.
_BAD_CELLS = {1: ["Z", "Ab", "I"], 2: ["NOP", "add", ""],
              3: ["int128", "INT_SCALAR"],
              5: ["x", "-3", "1.5", "", "9" * 5000]}


@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n_rows=st.integers(min_value=0, max_value=3000),
       n_bad=st.integers(min_value=0, max_value=3),
       chunk=st.integers(min_value=1, max_value=512),
       allow=st.sampled_from([(), ("phy/",), ("phy/", "ext/"), ("",),
                              ("phy/b", "other")]),
       deny=st.sampled_from([(), ("phy/debug/",), ("",), ("phy/a/x",)]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_parse_equals_the_row_loop(seed, n_rows, n_bad, chunk, allow,
                                       deny):
    """Checked a column at a time, a report gives the report or the first
    bad row's message of a loop that checks, filters and attributes each
    row in turn."""
    rng = random.Random(seed)
    block_map = rng.choice(_REPORT_MAPS)
    rows = [[rng.choice(_REPORT_PATHS), rng.choice(["", "", "A", "h"]),
             rng.choice(["ADD", "XOR", "FLOP"]),
             rng.choice(["int_scalar", "double_vector"]), "4x4",
             str(rng.randrange(10 ** rng.randrange(1, 25)))]
            for _ in range(n_rows)]
    for _ in range(n_bad if rows else 0):
        column = rng.choice(list(_BAD_CELLS))
        rng.choice(rows)[column] = rng.choice(_BAD_CELLS[column])
    text = HEADER + "".join(",".join(row) + "\n" for row in rows)
    with mock.patch.object(readers, "CHUNK_CHARS", chunk):
        got = _parse_outcome(parse_measurement_text, text, "s",
                             PathFilter(allow, deny), block_map)
    assert got == _parse_outcome(parse_rows, text, "s", allow, deny,
                                 block_map)


def test_the_first_bad_row_of_a_chunk_is_reported():
    """Two bad rows in one chunk: the earlier one is reported, though the
    later one's bad cell is in a column checked first."""
    text = (HEADER + "p,A,ADD,int_scalar,1,5\n" * 3
            + "p,A,ADD,int_scalar,1,x\n" + "p,A,NOP,int_scalar,1,5\n")
    with pytest.raises(MeasurementError) as exc:
        parse_measurement_text(text)
    assert str(exc.value) == "<string>:5: count must be an integer, got 'x'"


def test_the_report_holds_no_memory_per_row():
    """A parse keeps its counters and per-block sums only: one record per
    kept row would hold about 13 MB for these 50 000 rows."""
    text = HEADER + "".join(f"nr5g/path/number_{i},A,ADD,int_scalar,4x4,{i}\n"
                            for i in range(50_000))
    tracemalloc.start()
    try:
        report = parse_measurement_text(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meta.rows_kept == 50_000
    assert held < 1_000_000


def test_parsing_holds_no_memory_per_line():
    """Beyond the text and the rows it keeps, a parse of 50 000 rows holds
    under 1 MB at its peak; a list of every line would take about 5 MB."""
    text = HEADER + "".join(f"nr5g/path/number_{i},A,ADD,int_scalar,4x4,{i}\n"
                            for i in range(50_000))
    tracemalloc.start()
    try:
        report = parse_measurement_text(text)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meta.rows_kept == 50_000
    assert peak - current < 1_000_000


@pytest.mark.parametrize("row, message", [
    ("f,A,NOP,int_scalar,1,5", "unknown operator 'NOP'"),
    ("f,A,ADD,int_thing,1,5", "unknown data_type 'int_thing'"),
    ("f,A,ADD,int_scalar,1,x", "count must be an integer, got 'x'"),
    ("f,A,ADD,int_scalar,1,-3", "count must be >= 0"),
    ("f,A,ADD,int_scalar,1," + "9" * 5000, "count has too many digits (5000)"),
    ("f,Z,ADD,int_scalar,1,5", "unknown block 'Z'"),
    # The first bad cell in column order is the one reported.
    ("f,Z,NOP,int_thing,1,x", "unknown operator 'NOP'"),
    ("f,Z,ADD,int_thing,1,x", "unknown data_type 'int_thing'"),
    ("f,Z,ADD,int_scalar,1,x", "count must be an integer, got 'x'"),
    ('"f,A,ADD,int_scalar,1,5', "expected 6 columns, got 1"),
    ("f,A,ADD,int_scalar,5", "expected 6 columns, got 5"),
])
def test_errors_past_the_first_chunk_carry_their_line(row, message):
    text = HEADER + "nr5g/p,A,ADD,int_scalar,1,5\n" * 99_998 + row + "\n"
    with pytest.raises(MeasurementError) as exc:
        parse_measurement_text(text)
    assert str(exc.value) == f"<string>:100000: {message}"


def test_a_denied_row_is_still_validated():
    """Cells are checked before the filter: a row the filter drops fails
    on a bad cell with the same message as a row it keeps."""
    deny = PathFilter(deny=("nr5g/helpers/",))
    for cells, message in (
            (",NOP,int_scalar,1,5", "<string>:3: unknown operator 'NOP'"),
            (",ADD,int128,1,5", "<string>:3: unknown data_type 'int128'"),
            (",ADD,int_scalar,1,x",
             "<string>:3: count must be an integer, got 'x'"),
            ("Q,ADD,int_scalar,1,5", "<string>:3: unknown block 'Q'")):
        text = (HEADER + "nr5g/scrambling,B,XOR,logical_vector,64,4000\n"
                + f"nr5g/helpers/pad,{cells}\n")
        for path_filter in (deny, None):
            with pytest.raises(MeasurementError) as exc:
                parse_measurement_text(text, path_filter=path_filter)
            assert str(exc.value) == message


# Each row's count is a power of two of its own, so a sum names its rows.
MIXED = HEADER + """\
nr5g/dlsch/crc,A,XOR,logical_scalar,32,1
nr5g/dlsch/ldpc,,XOR,logical_scalar,32,2
nr5g/dlsch/ldpc/inner,,ADD,int_scalar,1,4
nr5g/scrambling,,XOR,logical_vector,64,8
nr5g/helpers/pad,,SET,int_scalar,1,16
nr5g/helpers/pad,H,SET,int_scalar,1,32
nr5g/unmapped,,SET,int_scalar,1,64
nr5g/unmapped,c,SET,int_scalar,1,128
matlab/startup,,SET,int_scalar,1,256
ext/lib,,SET,int_scalar,1,512
"""


def test_counters_on_a_mixed_report():
    """Explicit letters, map-attributed rows (nested prefixes), denied
    rows (with and without a letter), rows outside the allowlist and
    rows no prefix covers."""
    path_filter = PathFilter(allow=("nr5g/", "ext/"), deny=("nr5g/helpers/",))
    block_map = {"nr5g/dlsch/": BlockId.A, "nr5g/dlsch/ldpc/": BlockId.H,
                 "nr5g/scramb": BlockId.B, "nr5g/helpers/": BlockId.D,
                 "matlab/": BlockId.E}
    report = parse_measurement_text(MIXED, path_filter=path_filter,
                                    block_map=block_map)
    meta = report.meta
    assert (meta.rows_seen, meta.rows_kept, meta.rows_filtered,
            meta.rows_unattributed) == (10, 7, 3, 2)
    set_int = (OpKind.SET, DataClass.INT_SCALAR)
    assert report.block_tallies == tallies(
        A={(OpKind.XOR, DataClass.LOGICAL_SCALAR): 1 + 2},
        H={(OpKind.ADD, DataClass.INT_SCALAR): 4},
        B={(OpKind.XOR, DataClass.LOGICAL_VECTOR): 8},
        C={set_int: 128},
        none={set_int: 64 + 512})


def test_measured_row_is_a_positional_record():
    assert MeasuredRow._fields == ("function_path", "block", "operator",
                                   "data_type", "shape", "count")
    row = MeasuredRow("nr5g/dlsch/crc", BlockId.A, OpKind.XOR,
                      DataClass.LOGICAL_SCALAR, "32", 596)
    text = serialize_measurement([row])
    assert text == HEADER + SMALL.splitlines(keepends=True)[1]
    assert parse_measurement_text(text).block_tallies == tallies(
        A={(OpKind.XOR, DataClass.LOGICAL_SCALAR): 596})


def test_measured_report_is_a_positional_record():
    assert MeasuredReport._fields == ("meta", "block_tallies")
    report = parse_measurement_text(SMALL)
    assert report == MeasuredReport(report.meta, report.block_tallies)
    assert not report.empty
    denied = parse_measurement_text(
        SMALL, path_filter=PathFilter(deny=("nr5g/",)))
    assert denied.empty and denied.block_tallies == {}


def test_block_map_fills_empty_cells_only():
    block_map = {"nr5g/helpers/": BlockId.D, "nr5g/scrambling": BlockId.C}
    report = parse_measurement_text(SMALL, block_map=block_map)
    assert report.meta.rows_unattributed == 0
    # The empty cell takes the map's block; explicit letters win over it.
    assert report.block_tallies == tallies(A=SMALL_A, B=SMALL_B, D=SMALL_PAD)


def test_load_filter_config(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text(
        "allow:\n  - nr5g/\ndeny:\n  - nr5g/internal/\n"
        "block_map:\n  nr5g/dlsch: A\n  nr5g/ofdm: d\n")
    pf, bmap = load_filter_config(path)
    assert pf.allow == ("nr5g/",)
    assert pf.deny == ("nr5g/internal/",)
    assert bmap == {"nr5g/dlsch": BlockId.A, "nr5g/ofdm": BlockId.D}


def test_load_filter_config_rejects_bad_block(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text("block_map:\n  x: Z\n")
    with pytest.raises(ConfigError, match="not a block"):
        load_filter_config(path)


def test_load_filter_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text("allowlist: []\n")
    with pytest.raises(ConfigError, match="unknown filter keys"):
        load_filter_config(path)


# ---------------------------------------------------------------------------
# Costing measured rows


def test_measured_cycles_covers_all_blocks(uniform_table):
    report = parse_measurement_text(SMALL)
    cycles = measured_cycles(report, uniform_table)
    assert set(cycles) == set(BlockId)
    assert cycles[BlockId.A] == 1192
    assert cycles[BlockId.B] == 4000
    assert cycles[BlockId.C] == 0
    assert unattributed_cycles(report, uniform_table) == 12


def test_measured_cycles_additive_over_rows(uniform_table):
    doubled = SMALL + "nr5g/dlsch/crc,A,XOR,logical_scalar,32,596\n"
    once = measured_cycles(parse_measurement_text(SMALL), uniform_table)
    twice = measured_cycles(parse_measurement_text(doubled), uniform_table)
    assert twice[BlockId.A] == once[BlockId.A] + 596
    assert twice[BlockId.B] == once[BlockId.B]


def test_measured_rows_expand_flops(uniform_table):
    text = HEADER + "f,C,FLOP,double_scalar,1,100\n"
    cycles = measured_cycles(parse_measurement_text(text), uniform_table)
    assert cycles[BlockId.C] == 200


# ---------------------------------------------------------------------------
# Synthesis and comparison


def _reference_report(table):
    tallies = tally_pipeline(reference_scenario())
    return tallies, build_report(tallies, table,
                                 EnergyParams(kappa=1e-25, clock_hz=2.1e9))


def test_synthesized_rows_reproduce_model_exactly(uniform_table):
    tallies, report = _reference_report(uniform_table)
    rows = rows_from_tallies(tallies)
    parsed = parse_measurement_text(serialize_measurement(rows))
    meas = measured_cycles(parsed, uniform_table)
    comparison = compare(report, meas)
    for block in BlockId:
        assert comparison.per_block[block].ratio == 1
        assert comparison.per_block[block].flag == "match"
        assert comparison.per_block[block].signed_relative_error == 0.0
    assert comparison.total.ratio == 1
    assert comparison.overestimated == ()
    assert comparison.underestimated == ()


def test_comparison_ratio_is_table_scale_invariant():
    # same table on both sides: scaling cycle costs cancels in the ratio
    tallies, _ = _reference_report(make_table())
    rows = rows_from_tallies(tallies)
    parsed = parse_measurement_text(serialize_measurement(rows))
    for scale in (1, 3, 7):
        table = make_table(cycles=Fraction(scale))
        report = build_report(tallies, table,
                              EnergyParams(kappa=1e-25, clock_hz=2.1e9))
        meas = measured_cycles(parsed, table)
        comparison = compare(report, meas)
        assert comparison.total.ratio == 1


def test_compare_flags_over_and_under(uniform_table):
    _, report = _reference_report(uniform_table)
    meas = measured_cycles(
        parse_measurement_text(serialize_measurement(
            rows_from_tallies(tally_pipeline(reference_scenario())))),
        uniform_table)
    meas[BlockId.A] = meas[BlockId.A] * 2      # model now underestimates A
    meas[BlockId.D] = meas[BlockId.D] / 2      # model now overestimates D
    comparison = compare(report, meas)
    assert comparison.per_block[BlockId.A].flag == "under"
    assert comparison.per_block[BlockId.D].flag == "over"
    assert BlockId.D in comparison.overestimated
    assert BlockId.A in comparison.underestimated
    assert comparison.per_block[BlockId.A].ratio == Fraction(1, 2)
    assert comparison.per_block[BlockId.D].ratio == 2


def test_compare_handles_missing_blocks(uniform_table):
    _, report = _reference_report(uniform_table)
    meas = {BlockId.A: Fraction(100)}
    comparison = compare(report, meas)
    assert comparison.per_block[BlockId.B].flag == "undefined"
    assert comparison.per_block[BlockId.B].ratio is None
    assert comparison.per_block[BlockId.B].signed_relative_error is None
    # total still compares against the one measured block
    assert comparison.total.measured_cycles == 100


def test_compare_zero_measurement_is_undefined(uniform_table):
    _, report = _reference_report(uniform_table)
    meas = {b: Fraction(0) for b in BlockId}
    comparison = compare(report, meas)
    for b in BlockId:
        assert comparison.per_block[b].flag == "undefined"


def test_compare_records_unattributed_cycles(uniform_table):
    _, report = _reference_report(uniform_table)
    comparison = compare(report, {BlockId.A: Fraction(1)},
                         unattributed=Fraction(55))
    assert comparison.unattributed_cycles == 55


@given(scale=st.integers(min_value=1, max_value=9))
@settings(max_examples=9, deadline=None)
def test_scaling_measurement_scales_ratio_inversely(scale):
    table = make_table()
    tallies, report = _reference_report(table)
    rows = rows_from_tallies(tallies)
    meas = measured_cycles(
        parse_measurement_text(serialize_measurement(rows)), table)
    scaled = {b: c * scale for b, c in meas.items()}
    comparison = compare(report, scaled)
    assert comparison.total.ratio == Fraction(1, scale)
