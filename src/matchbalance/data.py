"""Match-record ingestion, validation and descriptive summaries.

The on-disk format is a CSV with header
``winner,player1,race1,player2,race2,map,date,duration_seconds``
where ``winner`` is 1 if player1 won, races are Terran/Protoss/Zerg
(other tags survive parsing and are removed by :func:`filter_valid`),
dates are ISO ``YYYY-MM-DD`` and durations are integer seconds.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np

RACES: tuple[str, str, str] = ("Terran", "Protoss", "Zerg")

CSV_HEADER: tuple[str, ...] = (
    "winner",
    "player1",
    "race1",
    "player2",
    "race2",
    "map",
    "date",
    "duration_seconds",
)


class ParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MatchRecord:
    """One game between two distinct players."""

    winner: int
    player1: str
    race1: str
    player2: str
    race2: str
    map_name: str
    date: dt.date
    duration: int

    def __post_init__(self) -> None:
        if self.winner not in (0, 1):
            raise ValueError(f"winner must be 0 or 1, got {self.winner!r}")
        if self.player1 == self.player2:
            raise ValueError(f"player1 and player2 are both {self.player1!r}")
        if self.duration < 0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")


@dataclass(frozen=True, eq=False)
class _Codes:
    """Records as integer codes: ``rows`` holds player1, player2, race1,
    race2, map and winner codes per record, indexing the sorted ``players``
    and ``maps`` and ``races`` (RACES, then unrecognized tags).  A row
    take keeps the tables, so some codes may not occur in it."""

    players: tuple[str, ...]
    maps: tuple[str, ...]
    races: tuple[str, ...]
    rows: np.ndarray

    def take(self, rows: np.ndarray) -> "_Codes":
        return _Codes(self.players, self.maps, self.races, self.rows[rows])

    def games(self) -> np.ndarray:
        """Games per player code (either side); 0 for players absent from the rows."""
        return np.bincount(self.rows[:, :2].ravel(), minlength=len(self.players))


def _code(records: tuple["MatchRecord", ...]) -> _Codes:
    """Code ``records``, reading each field of each record once."""
    p1 = [r.player1 for r in records]
    p2 = [r.player2 for r in records]
    r1 = [r.race1 for r in records]
    r2 = [r.race2 for r in records]
    maps = [r.map_name for r in records]
    players = tuple(sorted(set(p1).union(p2)))
    races = RACES + tuple(sorted(set(r1).union(r2) - set(RACES)))
    map_table = tuple(sorted(set(maps)))
    rows = np.empty((len(records), 6), dtype=np.intp)
    for j, (table, column) in enumerate(zip((players, players, races, races, map_table),
                                             (p1, p2, r1, r2, maps))):
        code = dict(zip(table, range(len(table))))
        rows[:, j] = np.fromiter(map(code.__getitem__, column), np.intp, len(column))
    rows[:, 5] = [r.winner for r in records]
    return _Codes(players, map_table, races, rows)


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of match records.

    ``filter_log`` accumulates records dropped by validation together
    with the reason.  The records are coded once, on first use; the
    codes give ``players`` and ``maps``, the ids appearing in them.
    """

    records: tuple[MatchRecord, ...]
    filter_log: tuple[tuple[MatchRecord, str], ...] = ()

    @classmethod
    def from_records(
        cls,
        records: Iterable[MatchRecord],
        filter_log: Iterable[tuple[MatchRecord, str]] = (),
    ) -> "Dataset":
        return cls(tuple(records), tuple(filter_log))

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _codes(self) -> _Codes:
        return _code(self.records)

    @property
    def players(self) -> frozenset[str]:
        return frozenset(self._codes.players)

    @property
    def maps(self) -> frozenset[str]:
        return frozenset(self._codes.maps)


def parse_matches(source: str | TextIO) -> Dataset:
    """Parse CSV text (or an open text stream) into a Dataset.

    Raises :class:`ParseError` naming the offending line for any
    malformed row.  Race tags are not validated here; use
    :func:`filter_valid` afterwards.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: header row required") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(
            f"bad header {header!r}, expected {','.join(CSV_HEADER)}", line=1
        )

    records: list[MatchRecord] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        cells = [c.strip() for c in row]
        if tuple(cells) == CSV_HEADER:
            raise ParseError("duplicate header row", line)
        if len(cells) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(cells)}", line)
        winner_s, p1, r1, p2, r2, map_name, date_s, dur_s = cells
        if winner_s not in ("0", "1"):
            raise ParseError(f"winner must be 0 or 1, got {winner_s!r}", line)
        for name, value in (("player1", p1), ("race1", r1), ("player2", p2),
                            ("race2", r2), ("map", map_name)):
            if not value:
                raise ParseError(f"empty {name} field", line)
        if p1 == p2:
            raise ParseError(f"player1 and player2 are both {p1!r}", line)
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise ParseError(f"bad date {date_s!r}, expected YYYY-MM-DD", line) from None
        try:
            duration = int(dur_s)
        except ValueError:
            raise ParseError(f"bad duration {dur_s!r}, expected integer seconds", line) from None
        if duration < 0:
            raise ParseError(f"duration must be nonnegative, got {duration}", line)
        records.append(
            MatchRecord(int(winner_s), p1, r1, p2, r2, map_name, date, duration)
        )
    return Dataset.from_records(records)


def dataset_to_csv(d: Dataset) -> str:
    """Serialize back to the canonical CSV schema (round-trips through parse)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in d.records:
        writer.writerow(
            [r.winner, r.player1, r.race1, r.player2, r.race2,
             r.map_name, r.date.isoformat(), r.duration]
        )
    return buf.getvalue()


def filter_valid(d: Dataset) -> Dataset:
    """Drop records whose race tags are outside the three playable races.

    Removed records are appended to ``filter_log`` with a reason; the
    player and map sets are recomputed from the surviving records.
    Idempotent: filtering an already-clean dataset is a no-op.
    """
    kept: list[MatchRecord] = []
    log = list(d.filter_log)
    for r in d.records:
        bad = sorted({tag for tag in (r.race1, r.race2) if tag not in RACES})
        if bad:
            log.append((r, "unrecognized race tag(s): " + ", ".join(repr(t) for t in bad)))
        else:
            kept.append(r)
    return Dataset.from_records(kept, log)


def games_per_player(d: Dataset) -> dict[str, int]:
    """Number of games each player appears in (either side); keys sorted."""
    codes = d._codes
    return dict(zip(codes.players, codes.games().tolist()))


@dataclass
class DescriptiveStats:
    """Summary tables for a validated dataset.

    ``race_counts`` counts distinct players per race.  ``pair_frequencies``
    is keyed by alphabetically sorted race pairs (same-race included);
    ``pair_wins`` by ordered (winner race, loser race); ``win_ratios``
    only by cross-race ordered pairs with at least one game.
    ``monthly_race_trend`` maps "YYYY-MM" to per-race
    (distinct player count, proportion of that month's players).
    """

    race_counts: dict[str, int]
    games_per_player: dict[str, int]
    games_histogram: dict[str, int]
    pair_frequencies: dict[tuple[str, str], int]
    pair_wins: dict[tuple[str, str], int]
    win_ratios: dict[tuple[str, str], float]
    monthly_race_trend: dict[str, dict[str, tuple[int, float]]]


def _month_key(date: dt.date) -> str:
    return f"{date.year:04d}-{date.month:02d}"


def describe(d: Dataset) -> DescriptiveStats:
    """Compute the descriptive tables; expects a filtered dataset."""
    race_players: dict[str, set[str]] = {race: set() for race in RACES}
    pair_freq: Counter[tuple[str, str]] = Counter()
    pair_wins: Counter[tuple[str, str]] = Counter()
    monthly: dict[str, dict[str, set[str]]] = {}

    for r in d.records:
        race_players[r.race1].add(r.player1)
        race_players[r.race2].add(r.player2)
        pair_freq[tuple(sorted((r.race1, r.race2)))] += 1
        if r.winner == 1:
            pair_wins[(r.race1, r.race2)] += 1
        else:
            pair_wins[(r.race2, r.race1)] += 1
        month = monthly.setdefault(_month_key(r.date), {race: set() for race in RACES})
        month[r.race1].add(r.player1)
        month[r.race2].add(r.player2)

    counts = games_per_player(d)
    histogram: Counter[int] = Counter()
    for c in counts.values():
        histogram[(c - 1) // 5] += 1
    games_histogram = {
        f"{5 * b + 1}-{5 * b + 5}": histogram[b] for b in sorted(histogram)
    }

    win_ratios: dict[tuple[str, str], float] = {}
    for a in RACES:
        for b in RACES:
            if a == b:
                continue
            freq = pair_freq.get(tuple(sorted((a, b))), 0)
            if freq:
                win_ratios[(a, b)] = pair_wins.get((a, b), 0) / freq

    trend: dict[str, dict[str, tuple[int, float]]] = {}
    for month in sorted(monthly):
        sets = monthly[month]
        total = sum(len(s) for s in sets.values())
        trend[month] = {
            race: (len(sets[race]), len(sets[race]) / total) for race in RACES
        }

    return DescriptiveStats(
        race_counts={race: len(race_players[race]) for race in RACES},
        games_per_player=counts,
        games_histogram=games_histogram,
        pair_frequencies=dict(sorted(pair_freq.items())),
        pair_wins=dict(sorted(pair_wins.items())),
        win_ratios=win_ratios,
        monthly_race_trend=trend,
    )
