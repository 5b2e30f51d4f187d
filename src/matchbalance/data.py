"""Match-record ingestion, validation and descriptive summaries.

The on-disk format is a CSV with header
``winner,player1,race1,player2,race2,map,date,duration_seconds``
where ``winner`` is 1 if player1 won, races are Terran/Protoss/Zerg
(other tags survive parsing and are removed by :func:`filter_valid`),
dates are strictly ``YYYY-MM-DD`` and durations are integer seconds.

A :class:`Dataset` stores the games as integer-coded columns.  Parsing,
simulation and :meth:`Dataset.from_records` build it through one column
coder, which gives names codes as they arrive and sorts each name table
at the end; filtering, bootstrap draws and CV folds are row takes of it.
A :class:`MatchRecord` is a row view, built only when asked for.

:func:`parse_matches` reads the CSV a chunk of rows at a time.  Each
chunk is transposed into columns; each distinct raw cell is stripped,
checked and coded once, and the chunk's checks run as one fault mask
per check before the next chunk is read.  So memory holds the coded
columns and one chunk of text, never a tuple per row, and a
:class:`ParseError` still names the line of the first faulty row.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, product
from typing import Iterable, Iterator, TextIO

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
_CHUNK_ROWS = 4096  # rows read, checked and coded at a time
_BLOCK_CHARS = 1 << 16  # characters of a text source read into one StringIO


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
        # parse_matches strips every cell and rejects an empty name, so
        # only these names survive a CSV round trip
        for field in ("player1", "race1", "player2", "race2", "map_name"):
            name = getattr(self, field)
            if not name:
                raise ValueError(f"{field} is empty")
            if name != name.strip():
                raise ValueError(f"{field} {name!r} has leading or trailing whitespace")
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
    def from_records(
        cls,
        records: Iterable[MatchRecord],
        filter_log: Iterable[tuple[MatchRecord, str]] = (),
    ) -> "Dataset":
        records = tuple(records)
        return cls._from_columns(
            *([getattr(r, field) for r in records] for field in
              ("player1", "player2", "race1", "race2", "map_name", "winner")),
            [r.date.toordinal() for r in records], [r.duration for r in records],
            filter_log=filter_log)

    @classmethod
    def _from_columns(cls, player1, player2, race1, race2, maps, winner, dates, durations,
                      filter_log: Iterable = ()) -> "Dataset":
        """Code whole columns of games: names, then winner, date ordinal and
        duration as integers."""
        coder = _Coder()
        coder.append(coder.players.codes(player1), coder.players.codes(player2),
                     coder.races.codes(race1), coder.races.codes(race2),
                     coder.maps.codes(maps),
                     *(np.array(c, np.int64) for c in (winner, dates, durations)))
        return coder.dataset(filter_log)

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


class _Table(dict):
    """Name -> code, in order of first appearance."""

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        return code

    def codes(self, names: Iterable[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, names), np.int64)

    def ranked(self, fixed: int = 0) -> tuple[tuple[str, ...], np.ndarray]:
        """The names, the first ``fixed`` kept in place and the rest sorted,
        and the rank of each code in that order."""
        names = list(self)
        order = [*range(fixed), *sorted(range(fixed, len(names)), key=names.__getitem__)]
        rank = np.empty(len(order), np.intp)
        rank[order] = np.arange(len(order))
        return tuple(names[i] for i in order), rank


class _Coder:
    """Games coded as they arrive, a chunk of columns at a time; the one
    way games become a Dataset.

    Names get codes in order of first appearance and the codes go to
    growing int64 buffers; :meth:`dataset` remaps each table to sorted
    order (RACES first) with one rank array.
    """

    def __init__(self) -> None:
        self.players, self.maps = _Table(), _Table()
        self.races = _Table(zip(RACES, range(len(RACES))))
        # player1, player2, race1, race2, map, winner, date ordinal, duration
        self._columns = tuple(array("q") for _ in range(8))

    def append(self, *columns: np.ndarray) -> None:
        """Append one chunk's int64 code columns, in the buffers' order."""
        for buffer, column in zip(self._columns, columns, strict=True):
            buffer.frombytes(memoryview(np.ascontiguousarray(column, np.int64)).cast("B"))

    def dataset(self, filter_log: Iterable = ()) -> Dataset:
        (players, p), (races, r), (maps, m) = (
            self.players.ranked(), self.races.ranked(len(RACES)), self.maps.ranked())
        *codes, dates, durations = (np.frombuffer(b, np.int64) for b in self._columns)
        rows = np.empty((len(dates), 6), np.intp)
        for j, (rank, column) in enumerate(zip((p, p, r, r, m), codes)):
            rows[:, j] = rank[column]
        rows[:, 5] = codes[5]
        return Dataset(players, maps, races, rows, dates.copy(), durations.copy(),
                       tuple(filter_log))


class _Cells(dict):
    """Raw CSV cell -> ``code`` of its stripped text, or -1 where ``code``
    raises a ValueError, whose message ``reasons`` keeps by raw cell."""

    def __init__(self, code) -> None:
        self.code, self.reasons = code, {}

    def __missing__(self, raw: str) -> int:
        try:
            value = self.code(raw.strip())
        except ValueError as exc:
            value, self.reasons[raw] = -1, str(exc)
        self[raw] = value
        return value


def _named(table: _Table) -> _Cells:
    """Cells coded through a name table; an empty name codes as -1."""
    return _Cells(lambda name: table[name] if name else -1)


def _winner(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"winner must be 0 or 1, got {text!r}")
    return int(text)


def _date_ordinal(text: str) -> int:
    if _DATE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text).toordinal()
        except ValueError:
            pass
    raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")


def _seconds(text: str) -> int:
    try:
        duration = int(text)
    except ValueError:
        raise ValueError(f"bad duration {text!r}, expected integer seconds") from None
    if duration < 0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    if duration > _MAX_DURATION:
        raise ValueError(f"duration {text!r} is too large for a 64-bit integer")
    return duration


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``io.StringIO(text)`` gives them, read a block
    at a time: a StringIO holds a copy of its text at 4 bytes a character."""

    def blocks() -> Iterator[str]:
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end

    return chain.from_iterable(map(io.StringIO, blocks()))


def _read_rows(reader) -> tuple[list[list[str]], list[int], ParseError | None]:
    """Up to _CHUNK_ROWS rows with the line each ends on, and the csv error
    that stopped the read early, if one did."""
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for row in islice(reader, _CHUNK_ROWS):
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:
        return rows, lines, ParseError(f"malformed CSV: {exc}", reader.line_num)
    return rows, lines, None


def _code_rows(rows: list[list[str]], lines: list[int], cells: tuple[_Cells, ...],
               coder: _Coder) -> None:
    """Check one chunk of rows and append its codes; a ParseError names the
    line of the first faulty row, and the first check it fails."""
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    misfit = np.flatnonzero((width != 0) & (width != len(CSV_HEADER)))
    if misfit.size:  # the rows before it first, so the first fault in the file wins
        k = int(misfit[0])
        _code_rows(rows[:k], lines[:k], cells, coder)
        raise ParseError(f"expected {len(CSV_HEADER)} fields, got {width[k]}", lines[k])
    if not width.all():  # blank lines
        rows, lines = list(compress(rows, width)), list(compress(lines, width))
    if not rows:
        return
    winner, p1, r1, p2, r2, m, date, duration = (
        np.fromiter(map(table.__getitem__, column), np.int64, len(rows))
        for table, column in zip(cells, zip(*rows)))
    # one column per check, in the order a row is checked
    faults = np.stack([winner < 0, p1 < 0, r1 < 0, p2 < 0, r2 < 0, m < 0, p1 == p2,
                       date < 0, duration < 0], axis=1)
    if faults.any():
        i, kind = divmod(int(faults.argmax()), faults.shape[1])
        row, column = rows[i], max(kind - 1, 0)  # the cell a value check read
        if tuple(c.strip() for c in row) == CSV_HEADER:  # fails the winner check
            reason = "duplicate header row"
        elif 1 <= kind <= 5:
            reason = f"empty {CSV_HEADER[kind]} field"
        elif kind == 6:
            reason = f"player1 and player2 are both {row[1].strip()!r}"
        else:
            reason = cells[column].reasons[row[column]]
        raise ParseError(reason, lines[i])
    coder.append(p1, p2, r1, r2, m, winner, date, duration)


def parse_matches(source: str | TextIO) -> Dataset:
    """Parse CSV text (or an open text stream) into a Dataset.

    Rows are read, checked and coded a chunk at a time.  Raises
    :class:`ParseError` naming the line of the first malformed row, or
    of the first CSV syntax error, whichever comes first.  Race tags
    are not validated here; use :func:`filter_valid` afterwards.
    """
    reader = csv.reader(_lines(source) if isinstance(source, str) else source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: header row required") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(
            f"bad header {header!r}, expected {','.join(CSV_HEADER)}", line=1
        )

    coder = _Coder()
    players, races = _named(coder.players), _named(coder.races)
    cells = (_Cells(_winner), players, races, players, races, _named(coder.maps),
             _Cells(_date_ordinal), _Cells(_seconds))
    while True:
        rows, lines, error = _read_rows(reader)
        _code_rows(rows, lines, cells, coder)
        if error is not None:
            raise error
        if len(rows) < _CHUNK_ROWS:
            return coder.dataset()


def dataset_to_csv(d: Dataset) -> str:
    """Serialize back to the canonical CSV schema (round-trips through parse)."""
    buf = io.StringIO()
    # csv.writer quotes a cell for the line terminator's characters only, so
    # a name holding CR but no LF would go out bare and not read back
    bare_cr = any("\r" in name and "\n" not in name
                  for name in d._players + d._maps + d._races)
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if bare_cr else csv.QUOTE_MINIMAL)
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
