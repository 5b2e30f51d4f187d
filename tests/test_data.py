import datetime as dt

import numpy as np
import pytest

import matchbalance as mb
from matchbalance.data import CSV_HEADER, Dataset, MatchRecord
from helpers import simple_league, table_counts_dataset

HEADER = ",".join(CSV_HEADER)

SAMPLE = f"""{HEADER}
0,Jonathan Walsh,Protoss,Greg Fields,Zerg,Xel'Naga Caverns,2011-01-01,1295
1,Greg Fields,Zerg,Dong Ju Lee,Terran,Metalopolis,2011-01-02,810
"""


def test_parse_sample_row():
    d = mb.parse_matches(SAMPLE)
    assert len(d) == 2
    r = d.records[0]
    assert r.winner == 0
    assert r.player1 == "Jonathan Walsh"
    assert r.race1 == "Protoss"
    assert r.player2 == "Greg Fields"
    assert r.race2 == "Zerg"
    assert r.map_name == "Xel'Naga Caverns"
    assert r.date == dt.date(2011, 1, 1)
    assert r.duration == 1295
    assert d.players == {"Jonathan Walsh", "Greg Fields", "Dong Ju Lee"}
    assert d.maps == {"Xel'Naga Caverns", "Metalopolis"}


def test_parse_header_only():
    d = mb.parse_matches(HEADER + "\n")
    assert len(d) == 0
    assert d.players == frozenset()
    assert d.filter_log == ()


def test_parse_keeps_unknown_race_tags():
    d = mb.parse_matches(
        f"{HEADER}\n1,A,random,B,Terran,Delta Quadrant,2010-11-05,700\n"
    )
    assert d.records[0].race1 == "random"


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("2,A,Terran,B,Zerg,M,2011-01-01,100", "winner"),
        ("1,A,Terran,B,Zerg,M,01/02/2011,100", "date"),
        ("1,A,Terran,B,Zerg,M,20110101,100", "date"),
        ("1,A,Terran,B,Zerg,M,2011-W01-1,100", "date"),
        ("1,A,Terran,B,Zerg,M,2011-01-01,9223372036854775808", "too large"),
        ("1,A,Terran,B,Zerg,M,2011-01-01,12m", "duration"),
        ("1,A,Terran,B,Zerg,M,2011-01-01,-5", "nonnegative"),
        ("1,A,Terran,B,Zerg,M,2011-01-01", "fields"),
        ("1,A,Terran,A,Terran,M,2011-01-01,100", "player"),
        ("1,,Terran,B,Zerg,M,2011-01-01,100", "empty"),
    ],
)
def test_parse_malformed_rows_name_line(row, fragment):
    with pytest.raises(mb.ParseError) as err:
        mb.parse_matches(f"{HEADER}\n{row}\n")
    assert err.value.line == 2
    assert fragment in str(err.value)


def test_record_rejects_a_duration_the_columns_cannot_hold():
    with pytest.raises(ValueError, match="too large"):
        MatchRecord(1, "A", "Terran", "B", "Zerg", "M", dt.date(2011, 1, 1), 2**63)


@pytest.mark.parametrize("field", ["player1", "race1", "player2", "race2", "map_name"])
@pytest.mark.parametrize("name, reason", [
    ("", "is empty"), (" A", "leading or trailing whitespace"),
    ("A ", "leading or trailing whitespace"), ("\tA\r\n", "leading or trailing whitespace")])
def test_record_rejects_a_name_that_csv_cannot_carry(field, name, reason):
    # parsing strips every cell and rejects an empty name, so such a
    # record would not come back from dataset_to_csv
    fields = dict(winner=1, player1="A", race1="Terran", player2="B", race2="Zerg",
                  map_name="M", date=dt.date(2011, 1, 1), duration=1)
    with pytest.raises(ValueError, match=f"^{field} ") as raised:
        MatchRecord(**{**fields, field: name})
    assert str(raised.value).endswith(reason)


def test_parse_rejects_duplicate_header():
    with pytest.raises(mb.ParseError, match="duplicate header"):
        mb.parse_matches(f"{HEADER}\n{HEADER}\n")


def test_parse_rejects_bad_header():
    with pytest.raises(mb.ParseError, match="bad header"):
        mb.parse_matches("a,b,c\n")
    with pytest.raises(mb.ParseError, match="header row required"):
        mb.parse_matches("")


def test_round_trip_through_csv():
    _, d = simple_league(3, n=150)
    again = mb.parse_matches(mb.dataset_to_csv(d))
    assert again == d
    # quoting survives commas and quotes in ids
    tricky = Dataset.from_records([
        MatchRecord(1, 'Walsh, Jonathan', "Terran", 'the "Greg"', "Zerg",
                    "Lost, Temple", dt.date(2011, 2, 3), 50)
    ])
    assert mb.parse_matches(mb.dataset_to_csv(tricky)) == tricky


def test_filter_valid_removes_and_logs():
    good = f"{HEADER}\n" + "\n".join(
        f"1,A{i},Terran,B{i},Zerg,M,2010-10-10,{i}" for i in range(5)
    )
    raw = mb.parse_matches(
        good + "\n1,OnlyHere,random,A0,Terran,M,2010-10-11,99\n"
    )
    d = mb.filter_valid(raw)
    assert len(d) == 5
    assert len(d.filter_log) == 1
    assert "random" in d.filter_log[0][1]
    # player appearing only in removed games vanishes from the id sets
    assert "OnlyHere" not in d.players


def test_filter_valid_noop_and_idempotent():
    _, d = simple_league(4, n=80)
    filtered = mb.filter_valid(d)
    assert filtered == d
    assert mb.filter_valid(filtered) == filtered


def test_coded_rows_group_exactly_past_an_int64_key():
    # each game has its own players, race tags and map, so the five columns'
    # code ranges multiply past 2**63 and the grouping key must be re-ranked
    n = 5000
    names, tags = [f"p{i:05d}" for i in range(2 * n)], [f"t{i:05d}" for i in range(2 * n)]
    raw = Dataset._from_columns(names[:n], names[n:], tags[:n], tags[n:],
                                [f"m{i:05d}" for i in range(n)], [1] * n, [733000] * n,
                                [60] * n)
    d = raw._take(np.random.default_rng(0).integers(0, n, 2 * n))
    widths = [int(column.max()) + 1 for column in d._rows[:, :5].T]
    assert np.prod(widths, dtype=object) > np.iinfo(np.int64).max
    coded, label, winner = d._coded
    assert np.array_equal(coded, np.unique(d._rows[:, :5], axis=0))
    assert np.array_equal(coded[label], d._rows[:, :5]) and np.array_equal(winner, d._rows[:, 5])


def test_games_per_player_identities():
    _, d = simple_league(5, n=300)
    counts = mb.games_per_player(d)
    assert sum(counts.values()) == 2 * len(d)
    # direct brute-force recount
    for player, c in counts.items():
        assert c == sum(r.player1 == player or r.player2 == player for r in d.records)
    assert np.isclose(np.mean(list(counts.values())), 2 * len(d) / len(d.players))


def test_games_per_player_single_record():
    d = Dataset.from_records([
        MatchRecord(1, "A", "Terran", "B", "Terran", "M", dt.date(2011, 1, 1), 1)
    ])
    assert mb.games_per_player(d) == {"A": 1, "B": 1}


def test_describe_reference_tables():
    stats = mb.describe(table_counts_dataset())
    assert stats.pair_frequencies == {
        ("Protoss", "Protoss"): 45,
        ("Protoss", "Terran"): 233,
        ("Protoss", "Zerg"): 131,
        ("Terran", "Terran"): 134,
        ("Terran", "Zerg"): 265,
        ("Zerg", "Zerg"): 44,
    }
    assert stats.pair_wins[("Terran", "Protoss")] == 121
    assert stats.win_ratios[("Terran", "Protoss")] == 121 / 233
    assert stats.win_ratios[("Terran", "Zerg")] == 132 / 265
    assert stats.win_ratios[("Protoss", "Zerg")] == 67 / 131
    month = stats.monthly_race_trend["2010-09"]
    assert month["Protoss"][0] == 16
    assert month["Terran"][0] == 17
    assert month["Zerg"][0] == 10
    assert round(month["Protoss"][1], 5) == 0.37209


def test_describe_single_game():
    d = Dataset.from_records([
        MatchRecord(1, "A", "Terran", "B", "Zerg", "M", dt.date(2011, 1, 1), 1)
    ])
    stats = mb.describe(d)
    assert stats.pair_frequencies == {("Terran", "Zerg"): 1}
    assert stats.win_ratios[("Terran", "Zerg")] == 1.0
    assert ("Zerg", "Terran") in stats.win_ratios
    assert stats.win_ratios[("Zerg", "Terran")] == 0.0


def test_describe_invariants():
    _, d = simple_league(6, n=400)
    stats = mb.describe(d)
    assert sum(stats.pair_frequencies.values()) == len(d)
    assert sum(stats.pair_wins.values()) == len(d)
    for (a, b), freq in stats.pair_frequencies.items():
        if a != b:
            assert stats.pair_wins.get((a, b), 0) + stats.pair_wins.get((b, a), 0) == freq
            assert stats.win_ratios[(a, b)] + stats.win_ratios[(b, a)] == 1.0
    for month, row in stats.monthly_race_trend.items():
        assert abs(sum(prop for _, prop in row.values()) - 1.0) < 1e-9
    assert sum(stats.games_histogram.values()) == len(d.players)
