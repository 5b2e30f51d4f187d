"""The chunked, column-coded CSV parser against the row-by-row oracle.

Every parse is compared bitwise with ``oracles.parse_matches_rowwise``:
the name tables, the code rows, the dates and the durations, or else the
line and message of the ParseError.  Chunks of three rows
(``data._CHUNK_ROWS`` patched) put faults after several chunks and at
chunk boundaries; small text blocks (``data._BLOCK_CHARS``) split a
text source's lines exactly as one StringIO over it does.  Simulation, ``Dataset.from_records`` and a CSV round
trip code the same games into the same columns.
"""
import csv
import datetime as dt
import io
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchbalance as mb
from matchbalance import data
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


def parses_as_oracle(text):
    """Parse ``text`` and check the result against the oracle's; returns it."""
    got, expected = outcome(mb.parse_matches, text), outcome(parse_matches_rowwise, text)
    if isinstance(expected, Dataset):
        assert isinstance(got, Dataset), got
        assert_same_dataset(got, expected)
    else:
        assert got == expected
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
@given(st.text(alphabet=["a", ",", '"', "\r", "\n"], max_size=40), st.integers(0, 8))
def test_text_is_read_in_blocks_as_one_stringio_reads_it(text, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_BLOCK_CHARS", block)
        assert list(data._lines(text)) == list(io.StringIO(text))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(padded_games(), st.sampled_from([1, 2, 3, 4096]))
def test_csv_round_trip_strips_padding_and_keeps_everything_else(padded, chunk):
    rows, games = padded
    stripped = Dataset.from_records(games)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_CHUNK_ROWS", chunk)
        patch.setattr(data, "_BLOCK_CHARS", chunk)
        for text in (padded_csv(rows), mb.dataset_to_csv(stripped)):
            got = parses_as_oracle(text)
            assert_same_dataset(got, stripped)
            assert got.records == stripped.records
