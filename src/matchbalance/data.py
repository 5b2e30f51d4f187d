"""Match-record ingestion, validation and descriptive summaries.

The on-disk format is a CSV with header
``winner,player1,race1,player2,race2,map,date,duration_seconds``
where ``winner`` is 1 if player1 won, races are Terran/Protoss/Zerg
(other tags survive parsing and are removed by :func:`filter_valid`),
dates are strictly ``YYYY-MM-DD`` and durations are integer seconds.

A :class:`Dataset` stores the games as integer-coded columns.  Parsing,
simulation and :meth:`Dataset.from_records` build it through one
constructor; filtering, bootstrap draws and CV folds are row takes of
it.  A :class:`MatchRecord` is a row view, built only when asked for.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
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

_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_MAX_DURATION = int(np.iinfo(np.int64).max)


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
        if self.duration > _MAX_DURATION:
            raise ValueError(f"duration {self.duration} is too large for a 64-bit integer")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of games, stored as integer-coded columns.

    Row i of ``_rows`` holds the player1, player2, race1, race2, map and
    winner codes of game i.  Player and map codes index the sorted
    ``_players`` and ``_maps``; race codes index ``_races`` (RACES, then
    the unrecognized tags, sorted).  ``_dates`` holds date ordinals and
    ``_durations`` seconds.  A row take keeps the tables whole, so
    ``players``, ``maps`` and :func:`games_per_player` cover only the
    ids the rows use.  ``filter_log`` accumulates records dropped by
    validation together with the reason.  Datasets are equal when their
    records and filter logs are, whatever their tables.
    """

    _players: tuple[str, ...]
    _maps: tuple[str, ...]
    _races: tuple[str, ...]
    _rows: np.ndarray
    _dates: np.ndarray
    _durations: np.ndarray
    filter_log: tuple[tuple[MatchRecord, str], ...] = ()

    @classmethod
    def _from_rows(cls, rows: list[tuple], filter_log: Iterable = ()) -> "Dataset":
        """Code rows of (winner, player1, race1, player2, race2, map, date
        ordinal, duration), the one way games become a Dataset."""
        winner, p1, r1, p2, r2, maps, dates, durations = zip(*rows) if rows else [()] * 8
        players = tuple(sorted(set(p1).union(p2)))
        races = RACES + tuple(sorted(set(r1).union(r2) - set(RACES)))
        map_table = tuple(sorted(set(maps)))
        codes = np.empty((len(rows), 6), dtype=np.intp)
        for j, (table, column) in enumerate(zip((players, players, races, races, map_table),
                                                 (p1, p2, r1, r2, maps))):
            code = dict(zip(table, range(len(table))))
            codes[:, j] = np.fromiter(map(code.__getitem__, column), np.intp, len(column))
        codes[:, 5] = winner
        return cls(players, map_table, races, codes, np.array(dates, np.int64),
                   np.array(durations, np.int64), tuple(filter_log))

    @classmethod
    def from_records(
        cls,
        records: Iterable[MatchRecord],
        filter_log: Iterable[tuple[MatchRecord, str]] = (),
    ) -> "Dataset":
        return cls._from_rows([(r.winner, r.player1, r.race1, r.player2, r.race2,
                                r.map_name, r.date.toordinal(), r.duration)
                               for r in records], filter_log)

    def _take(self, rows: np.ndarray, filter_log: Iterable = ()) -> "Dataset":
        """The games at ``rows`` (indices, which may repeat, or a mask), same tables."""
        return Dataset(self._players, self._maps, self._races, self._rows[rows],
                       self._dates[rows], self._durations[rows], tuple(filter_log))

    def _games(self) -> np.ndarray:
        """Games per player code (either side); 0 for players absent from the rows."""
        return np.bincount(self._rows[:, :2].ravel(), minlength=len(self._players))

    def _fields(self, date=dt.date.fromordinal) -> Iterable[tuple]:
        """Each row's MatchRecord fields, which are also its CSV fields, in order,
        with the date as ``date(ordinal)``."""
        p1, p2, r1, r2, m, winner = self._rows.T
        days, day = np.unique(self._dates, return_inverse=True)

        def decode(table, codes):
            return np.array(table, dtype=object)[codes].tolist()

        return zip(winner.tolist(), decode(self._players, p1), decode(self._races, r1),
                   decode(self._players, p2), decode(self._races, r2),
                   decode(self._maps, m),
                   decode([date(o) for o in days.tolist()], day),
                   self._durations.tolist())

    @cached_property
    def records(self) -> tuple[MatchRecord, ...]:
        """The games as records, in row order."""
        return tuple(MatchRecord(*f) for f in self._fields())

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.records == other.records and self.filter_log == other.filter_log

    @property
    def players(self) -> frozenset[str]:
        return frozenset(games_per_player(self))

    @property
    def maps(self) -> frozenset[str]:
        return frozenset(self._maps[m] for m in np.unique(self._rows[:, 4]).tolist())


def _date_ordinal(text: str, line: int) -> int:
    try:
        if _DATE.fullmatch(text):
            return dt.date.fromisoformat(text).toordinal()
    except ValueError:
        pass
    raise ParseError(f"bad date {text!r}, expected YYYY-MM-DD", line)


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

    rows: list[tuple] = []
    ordinals: dict[str, int] = {}
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
        ordinal = ordinals.get(date_s)
        if ordinal is None:
            ordinal = ordinals[date_s] = _date_ordinal(date_s, line)
        try:
            duration = int(dur_s)
        except ValueError:
            raise ParseError(f"bad duration {dur_s!r}, expected integer seconds", line) from None
        if duration < 0:
            raise ParseError(f"duration must be nonnegative, got {duration}", line)
        if duration > _MAX_DURATION:
            raise ParseError(f"duration {dur_s!r} is too large for a 64-bit integer", line)
        rows.append((int(winner_s), p1, r1, p2, r2, map_name, ordinal, duration))
    return Dataset._from_rows(rows)


def dataset_to_csv(d: Dataset) -> str:
    """Serialize back to the canonical CSV schema (round-trips through parse)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(d._fields(lambda ordinal: dt.date.fromordinal(ordinal).isoformat()))
    return buf.getvalue()


def filter_valid(d: Dataset) -> Dataset:
    """Drop records whose race tags are outside the three playable races.

    Removed records are appended to ``filter_log`` with a reason; the
    player and map sets cover the surviving records only.
    Idempotent: filtering an already-clean dataset is a no-op.
    """
    valid = (d._rows[:, 2:4] < len(RACES)).all(axis=1)
    log = [(r, "unrecognized race tag(s): "
            + ", ".join(repr(t) for t in sorted({r.race1, r.race2} - set(RACES))))
           for r in d._take(~valid).records]
    return d._take(valid, d.filter_log + tuple(log))


def games_per_player(d: Dataset) -> dict[str, int]:
    """Number of games each player appears in (either side); keys sorted."""
    games = d._games()
    return {d._players[i]: int(games[i]) for i in np.flatnonzero(games).tolist()}


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


def describe(d: Dataset) -> DescriptiveStats:
    """Compute the descriptive tables; expects a filtered dataset."""
    k, n_players = len(RACES), len(d._players)
    p1, p2, r1, r2, _, winner = d._rows.T
    if (d._rows[:, 2:4] >= k).any():
        raise ValueError("describe expects a filtered dataset: unrecognized race tags remain")
    days, day = np.unique(d._dates, return_inverse=True)
    months, month_of_day = np.unique(  # "YYYY-MM" of each distinct day
        [dt.date.fromordinal(o).isoformat()[:7] for o in days.tolist()], return_inverse=True)
    month = month_of_day[day]
    # each side of each game as one (month, race, player) key
    side_month, side_race = np.r_[month, month], np.r_[r1, r2]
    race_player = side_race * n_players + np.r_[p1, p2]
    race_counts = np.bincount(np.unique(race_player) // n_players, minlength=k)
    monthly = np.bincount(np.unique(side_month * k * n_players + race_player) // n_players,
                          minlength=len(months) * k).reshape(-1, k)
    ordered = np.bincount(r1 * k + r2, minlength=k * k).reshape(k, k).tolist()
    won = np.bincount(np.where(winner == 1, r1 * k + r2, r2 * k + r1),
                      minlength=k * k).reshape(k, k).tolist()

    pairs = list(product(range(k), repeat=2))
    pair_freq: Counter[tuple[str, str]] = Counter()
    for a, b in pairs:
        pair_freq[tuple(sorted((RACES[a], RACES[b])))] += ordered[a][b]
    pair_wins = {(RACES[a], RACES[b]): won[a][b] for a, b in pairs if won[a][b]}
    win_ratios = {(RACES[a], RACES[b]): won[a][b] / (ordered[a][b] + ordered[b][a])
                  for a, b in pairs if a != b and ordered[a][b] + ordered[b][a]}

    games = d._games()
    buckets = np.bincount((games[games > 0] - 1) // 5).tolist()
    games_histogram = {f"{5 * b + 1}-{5 * b + 5}": n for b, n in enumerate(buckets) if n}

    trend: dict[str, dict[str, tuple[int, float]]] = {}
    for key, counts in zip(months.tolist(), monthly.tolist()):
        total = sum(counts)
        trend[key] = {race: (c, c / total) for race, c in zip(RACES, counts)}

    return DescriptiveStats(
        race_counts=dict(zip(RACES, race_counts.tolist())),
        games_per_player=games_per_player(d),
        games_histogram=games_histogram,
        pair_frequencies={pair: n for pair, n in sorted(pair_freq.items()) if n},
        pair_wins=dict(sorted(pair_wins.items())),
        win_ratios=win_ratios,
        monthly_race_trend=trend,
    )
