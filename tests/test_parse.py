"""The block-tokenized, column-coded CSV parser against the row-by-row oracle.

Every parse is compared bitwise with ``oracles.parse_matches_rowwise``,
on the text and on a ``newline=""`` stream over it: the name tables, the
code rows, the dates and the durations, or else the line and message of
the ParseError.  Small chunks (``data._CHUNK_ROWS`` patched) put faults
after several chunks and blocks and at their boundaries, and plain
blocks, split with ``str.split``, before the blocks csv.reader reads.
The blocks of a text source split its lines exactly as one StringIO over
it does, and a stream's blocks are its own lines, so files with LF, CRLF
and CR line ends load as the oracle reads them.  Simulation,
``Dataset.from_records`` and a CSV round trip code the same games into
the same columns.
"""
import csv
import datetime as dt
import io
import string

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import matchbalance as mb
from matchbalance import cli, data
from matchbalance.data import CSV_HEADER, RACES, Dataset, MatchRecord
from oracles import parse_matches_rowwise

HEADER = ",".join(CSV_HEADER)
GOOD = [f"{i % 2},p{i % 4},{RACES[i % 3]},q{i % 5},{RACES[(i + 1) % 3]},M{i % 2},"
        f"2011-01-{1 + i % 28:02d},{100 + i}" for i in range(9)]

# one row per ParseError message a data row can raise, with a fragment of it
FAULTS = [
    ("2,A,Terran,B,Zerg,M,2011-01-01,100", "winner must be 0 or 1, got '2'"),
    (" x ,A,Terran,B,Zerg,M,2011-01-01,100", "winner must be 0 or 1, got 'x'"),
    ("1,,Terran,B,Zerg,M,2011-01-01,100", "empty player1 field"),
    ("1,A, ,B,Zerg,M,2011-01-01,100", "empty race1 field"),
    ("1,A,Terran,,Zerg,M,2011-01-01,100", "empty player2 field"),
    ("1,A,Terran,B,,M,2011-01-01,100", "empty race2 field"),
    ("1,A,Terran,B,Zerg,  ,2011-01-01,100", "empty map field"),
    ("1,A,Terran,A,Zerg,M,2011-01-01,100", "player1 and player2 are both 'A'"),
    ("1, A,Terran,A ,Zerg,M,2011-01-01,100", "player1 and player2 are both 'A'"),
    ("1,A,Terran,B,Zerg,M,01/02/2011,100", "bad date '01/02/2011'"),
    ("1,A,Terran,B,Zerg,M,2011-02-30,100", "bad date '2011-02-30'"),
    ("1,A,Terran,B,Zerg,M,,100", "bad date ''"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,12m", "bad duration '12m'"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,", "bad duration ''"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,-05", "duration must be nonnegative, got -5"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,9223372036854775808", "too large for a 64-bit"),
    ("1,A,Terran,B,Zerg,M,2011-01-01", "expected 8 fields, got 7"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,1,extra", "expected 8 fields, got 9"),
    (" ", "expected 8 fields, got 1"),
    (HEADER, "duplicate header row"),
    (" winner, player1 ,race1,player2,race2,map,date,duration_seconds ",
     "duplicate header row"),
]


def assert_same_dataset(got, expected):
    assert got._players == expected._players
    assert got._maps == expected._maps
    assert got._races == expected._races
    assert got.filter_log == expected.filter_log
    for name in ("_rows", "_dates", "_durations"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def outcome(parse, text):
    """The dataset ``parse`` makes of ``text``, or its ParseError's line and message."""
    try:
        return parse(text)
    except mb.ParseError as exc:
        return exc.line, str(exc)


def same_outcome(got, expected):
    if isinstance(expected, Dataset):
        assert isinstance(got, Dataset), got
        assert_same_dataset(got, expected)
    else:
        assert got == expected


def parses_as_oracle(text):
    """Parse ``text``, and a ``newline=""`` stream over it, and check each
    result against the oracle's; returns the text's."""
    got = outcome(mb.parse_matches, text)
    same_outcome(got, outcome(parse_matches_rowwise, text))
    same_outcome(outcome(mb.parse_matches, io.StringIO(text, newline="")),
                 outcome(parse_matches_rowwise, io.StringIO(text, newline="")))
    return got


def csv_text(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", 3)


@pytest.mark.parametrize("row, message", FAULTS)
def test_each_fault_names_its_line_after_any_number_of_chunks(row, message, small_chunks):
    for before in range(8):  # the fault in the first, second or third chunk
        got = parses_as_oracle(csv_text(*GOOD[:before], row, *GOOD))
        assert got[0] == before + 2
        assert got[1].startswith(f"line {before + 2}: ") and message in got[1]


def test_header_faults_match_the_oracle():
    assert parses_as_oracle("") == (None, "empty input: header row required")
    assert parses_as_oracle("a,b,c\n")[0] == 1
    assert parses_as_oracle("\n" + csv_text(*GOOD))[0] == 1


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_blank_lines_and_multiline_cells_keep_line_numbers(chunk, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    rows = [GOOD[0], "", GOOD[1], '1,"two\nlines",Zerg,B,Terran,"M\r\nX",2011-01-01,5',
            "", "", GOOD[2], '0,"x",Zerg,"three\n\nlines",Terran,M,2011-01-01,6']
    clean = parses_as_oracle(csv_text(*rows))
    assert "two\nlines" in clean.players and "M\r\nX" in clean.maps
    # header 1, rows 2 and 4 around a blank line, the quoted cells span lines
    # 5-7 and 11-13, with blank lines 8-9 between them
    assert parses_as_oracle(csv_text(*rows, FAULTS[0][0]))[0] == 14
    assert parses_as_oracle(csv_text(*rows, "", "", FAULTS[2][0]))[0] == 16


@pytest.mark.parametrize("row, message", [
    ("2,,Terran,B,Zerg,M,bad,-1", "winner"),
    ("1,,Terran,,Zerg,M,2011-01-01,1", "empty player1"),
    ("1,A,,A,Zerg,M,2011-01-01,1", "empty race1"),
    ("1,A,Terran,B,,,2011-01-01,1", "empty race2"),
    ("1,A,Terran,A,Zerg,M,bad,x", "player1 and player2"),
    ("1,A,Terran,B,Zerg,M,bad,x", "bad date"),
    ("1,A,Terran,B,Zerg,M,bad,-1", "bad date"),
])
def test_two_faults_in_one_row_report_the_first_check(row, message, small_chunks):
    for before in (0, 2, 4):
        got = parses_as_oracle(csv_text(*GOOD[:before], row))
        assert got[0] == before + 2 and message in got[1]


@pytest.mark.parametrize("first, second", [
    ("1,A,Terran,B,Zerg,M,bad,1", "2,A,Terran,B,Zerg,M,2011-01-01,1"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,x", "1,A,Terran,A,Zerg,M,2011-01-01,1"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,x", "1,A,Terran"),
    ("1,A,Terran", "2,A,Terran,B,Zerg,M,2011-01-01,1"),
    ("1,A,Terran,B,Zerg,M", "1,A,Terran"),
    ("1,A,Terran,B,Zerg,M,2011-01-01", "1,A,Terran,B,Zerg,M,2011-01-01,1,extra"),
    ("1,A,Terran,B,Zerg,M,2011-01-01,x", HEADER),
])
@pytest.mark.parametrize("chunk", [2, 3, 4096])
def test_the_first_faulty_line_wins(first, second, chunk, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    for gap in (0, 1, 3):
        got = parses_as_oracle(csv_text(GOOD[0], first, *GOOD[:gap], second, GOOD[1]))
        assert got[0] == 3


def test_padded_names_merge_with_unpadded_ones(small_chunks):
    d = parses_as_oracle(csv_text(
        "1, p1,Terran,p2 ,Zerg, M ,2011-01-01, 7",
        "0,p1,Terran ,\tp2,Zerg,M,2011-01-02,8",
        " 1 ,p2,Zerg,p1  ,Terran,M,2011-01-03,9",
        "0,p3,Protoss,p1,Zerg,N,2011-01-03,9"))
    assert d._players == ("p1", "p2", "p3") and d._maps == ("M", "N")
    assert d._rows[:, :2].tolist() == [[0, 1], [0, 1], [1, 0], [2, 0]]


def test_unknown_race_tags_sort_after_the_three_races(small_chunks):
    tags = ["random", "Zerg", "Random", " aaa ", "zzz", "Terran", "random", "Aaa"]
    rows = [f"1,a{i},{tag},b{i},{tags[-1 - i]},M,2011-01-01,1" for i, tag in enumerate(tags)]
    d = parses_as_oracle(csv_text(*rows))
    assert d._races == RACES + ("Aaa", "Random", "aaa", "random", "zzz")
    assert mb.filter_valid(d).filter_log[0][1] == "unrecognized race tag(s): 'Aaa', 'random'"


@pytest.mark.parametrize("chunk", [2, 4096])
def test_csv_syntax_errors_name_their_line_after_earlier_faults(chunk, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    huge = f"1,{'x' * (csv.field_size_limit() + 1)},Terran,B,Zerg,M,2011-01-01,1"
    for before in range(5):
        got = outcome(mb.parse_matches, csv_text(*GOOD[:before], huge, *GOOD))
        assert got == (before + 2, f"line {before + 2}: malformed CSV: "
                       f"field larger than field limit ({csv.field_size_limit()})")
        # a fault on an earlier line still wins, in this chunk or an earlier one
        got = outcome(mb.parse_matches, csv_text(*GOOD[:before], FAULTS[0][0], huge))
        assert got[0] == before + 2 and "winner" in got[1]


def test_from_records_simulation_and_csv_code_the_same_columns():
    truth = mb.random_league(12, n_maps=3, rng=np.random.default_rng(5),
                             schedule="tournament_tail")
    for n in (0, 1, 400):
        simulated = mb.generate(truth, n, np.random.default_rng(6))
        text = mb.dataset_to_csv(simulated)
        assert_same_dataset(Dataset.from_records(simulated.records), simulated)
        assert_same_dataset(mb.parse_matches(text), simulated)
        assert_same_dataset(parse_matches_rowwise(text), simulated)
    assert_same_dataset(Dataset.from_records([]), mb.parse_matches(HEADER + "\n"))


# names with commas, quotes, CR/LF inside, and padding around them
inner = st.text(alphabet=["a", "b", ",", '"', "\r", "\n", " ", "é"], max_size=4)
edge = st.sampled_from(string.ascii_letters)
cores = st.builds(lambda a, middle, b: a + middle + b, edge, inner, edge)
pads = st.text(alphabet=[" ", "\t", "\r", "\n"], max_size=2)


@st.composite
def padded_games(draw):
    """CSV cells of games whose names carry padding, and the games they parse to."""
    names = draw(st.lists(cores, min_size=2, max_size=6, unique=True))
    maps = draw(st.lists(cores, min_size=1, max_size=3, unique=True))
    races = [*RACES, "random", "Random"]

    def pad(name):
        return draw(pads) + name + draw(pads)

    rows, games = [], []
    for _ in range(draw(st.integers(1, 12))):
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        game = MatchRecord(
            draw(st.integers(0, 1)), a, draw(st.sampled_from(races)), b,
            draw(st.sampled_from(races)), draw(st.sampled_from(maps)),
            draw(st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))),
            draw(st.integers(0, 2**63 - 1)))
        rows.append([game.winner, pad(game.player1), pad(game.race1), pad(game.player2),
                     pad(game.race2), pad(game.map_name), game.date.isoformat(),
                     game.duration])
        games.append(game)
    return rows, games


def padded_csv(rows):
    """The CSV text of rows of cells, every cell quoted, so padding stays inside."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([CSV_HEADER, *rows])
    return buf.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=["a", ",", '"', "\r", "\n"], max_size=60), st.integers(1, 4))
def test_text_is_read_in_blocks_as_one_stringio_reads_it(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_CHUNK_ROWS", chunk)
        blocks = list(data._blocks(text))
        streamed = list(data._blocks(io.StringIO(text, newline="")))
    assert "".join(blocks) == text
    assert all(block.endswith("\n") for block in blocks[:-1])
    assert [line for block in blocks for line in io.StringIO(block)] == list(io.StringIO(text))
    assert [line for block in streamed for line in block] == list(
        io.StringIO(text, newline=""))
    # the lines before a block's last fit in 8 * chunk - 1 characters, so a
    # block holds at most ``chunk`` lines of 8 characters or more
    for lines in [list(io.StringIO(block)) for block in blocks] + streamed:
        assert len("".join(lines[:-1])) < 8 * chunk


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(padded_games(), st.sampled_from([1, 2, 3, 4096]))
def test_csv_round_trip_strips_padding_and_keeps_everything_else(padded, chunk):
    rows, games = padded
    stripped = Dataset.from_records(games)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_CHUNK_ROWS", chunk)
        for text in (padded_csv(rows), mb.dataset_to_csv(stripped)):
            got = parses_as_oracle(text)
            assert_same_dataset(got, stripped)
            assert got.records == stripped.records


# cells that csv.reader reads apart from str.split, and ones it does not
junk = st.text(alphabet=[",", '"', "\r", "\n", "\0", " ", "é", "\ud800", "1"], max_size=10)
ROWS = [*GOOD, "1,é\ud800,Zerg,B,Terran,M,2011-01-01,5", " 1 , p0 ,Zerg,B,Terran,M\t,2011-01-01, 5",
        '1,"two\nlines",Zerg,B,Terran,M,2011-01-01,5', '0,A,Zerg,"B,\r\n",Terran,M,2011-01-01,6']


@st.composite
def mixed_texts(draw):
    """CSV text of valid rows with junk lines and junk cells among them,
    ending its lines with LF, CRLF or CR."""
    lines = [HEADER if draw(st.integers(0, 19)) else draw(junk)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 29))
        line = draw(st.sampled_from(ROWS))
        if kind == 0:  # one cell of a valid row
            cells = line.split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(junk)
            line = ",".join(cells)
        elif kind == 1:
            line = draw(junk)
        lines.append(line)
    ends = st.sampled_from(["\n"] * 12 + ["\r\n", "\r", ""])
    return "".join(line + draw(ends) for line in lines)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mixed_texts(), st.sampled_from([1, 2, 3, 4096]))
def test_plain_and_csv_blocks_parse_as_the_oracle(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_CHUNK_ROWS", chunk)
        plain = [data._plain_cells(block) is not None for block in data._blocks(text)]
        got = parses_as_oracle(text)
    event("no block plain" if not plain[0] else "plain blocks, then csv blocks"
          if False in plain else "every block plain")
    event("ParseError" if isinstance(got, tuple) else "Dataset")


def write_lines(path, lines, end):
    path.write_bytes("".join(line + end for line in lines).encode())
    return str(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("chunk", [3, 4096])
def test_files_load_as_the_oracle_reads_their_lines(end, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
    rows = [HEADER, *GOOD, ROWS[-2], ROWS[-1], *GOOD, "1,A,Terran,B,random,M,2011-01-01,5"]
    for tail in ([], [FAULTS[0][0], *GOOD]):
        path = write_lines(tmp_path / "games.csv", rows + tail, end)
        if chunk == 3:  # a first block of plain lines; CR-only ends go to csv.reader
            with open(path, encoding="utf-8-sig", newline="") as fh:
                assert (data._plain_cells(next(data._blocks(fh))) is None) == (end == "\r")
        got = outcome(cli._load_dataset, path)
        with open(path, encoding="utf-8-sig", newline="") as fh:
            expected = outcome(lambda fh: mb.filter_valid(parse_matches_rowwise(fh)), fh)
        same_outcome(got, expected)
        if tail:  # after the two quoted cells that span two lines each
            assert got[0] == len(rows) + 3
        else:  # a quoted line break comes back as written
            assert "two\nlines" in got.players and "B," in got.players


def test_a_fault_after_plain_blocks_and_a_multiline_cell_names_its_line(tmp_path):
    rows = [HEADER, *GOOD * 400, ROWS[-2], *GOOD, FAULTS[0][0], *GOOD]
    fault = len(rows) - len(GOOD) + 1  # the multiline cell takes two lines
    text = "".join(row + "\n" for row in rows)
    blocks = list(data._blocks(text))
    assert data._plain_cells(blocks[0]) is not None and len(blocks) > 1
    got = outcome(cli._load_dataset, write_lines(tmp_path / "games.csv", rows, "\n"))
    assert got == (fault, f"line {fault}: {FAULTS[0][1]}")
    assert parses_as_oracle(text) == got


def test_a_generated_league_is_split_without_csv_reader(monkeypatch):
    truth = mb.random_league(60, n_maps=4, rng=np.random.default_rng(7),
                             schedule="tournament_tail")
    text = mb.dataset_to_csv(mb.generate(truth, 6000, np.random.default_rng(8)))
    assert len(list(data._blocks(text))) > 2

    def reader(*args, **kwargs):
        raise AssertionError("csv.reader read a plain block")

    for text in (text, text.replace("\n", "\r\n")):  # LF and CRLF line ends
        with monkeypatch.context() as patch:
            patch.setattr(data.csv, "reader", reader)
            from_text = mb.parse_matches(text)
            from_stream = mb.parse_matches(io.StringIO(text, newline=""))
        expected = parse_matches_rowwise(text)
        assert_same_dataset(from_text, expected)
        assert_same_dataset(from_stream, expected)
