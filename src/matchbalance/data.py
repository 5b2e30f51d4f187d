"""Match-record ingestion, validation and descriptive summaries.

The on-disk format is a CSV with header
``winner,player1,race1,player2,race2,map,date,duration_seconds``
where ``winner`` is 1 if player1 won, races are Terran/Protoss/Zerg
(other tags survive parsing and are removed by :func:`filter_valid`),
dates are strictly ``YYYY-MM-DD`` and durations are integer seconds.

A :class:`Dataset` stores the games as integer-coded columns.  Parsing,
simulation and :meth:`Dataset.from_records` build it through one column
coder, which gives names codes as they arrive and sorts each name table
at the end; filtering is a row take of it, and every index and design
counts games on its distinct coded rows (``Dataset._coded``).
A :class:`MatchRecord` is a row view, built only when asked for.

:func:`parse_matches` reads its source a block of whole lines at a time,
a few thousand rows at most.  A plain block, one that csv.reader would
read as ``line.split(",")`` with 8 cells on every line (no quote, CR or
NUL, exactly 7 commas a line, no cell over ``csv.field_size_limit()``),
is split into cells with one ``str.split`` and sliced into 8 columns.
From the first block that is not plain, csv.reader reads the rest of
the source a chunk of rows at a time, given the lines it would be given
for the whole source (a text's ``io.StringIO`` lines, a stream's own),
and each chunk is transposed into columns.  Either way,
each distinct raw cell is stripped, checked and coded once, and the
columns' checks run as one fault mask per check before the next block
or chunk is read.  So memory holds the coded columns and one block or
chunk of text, never a tuple per row, and a :class:`ParseError` still
names the line of the first faulty row.
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
from typing import Iterable, Iterator, Sequence, TextIO

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
    def _coded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct coded rows (player1, player2, race1, race2, map), in
        sorted order, each game's row among them, and each game's winner.

        Rows are grouped on one int64 key of their codes, each a digit in
        base one more than its column's largest code; where a digit could
        overflow it, the key so far is first replaced by its rank, so the
        grouping is exact for any codes."""
        columns = self._rows[:, :5].T.copy()  # contiguous, for the key's passes
        key, size = 0, 1  # size bounds the key
        for column in columns:
            base = int(column.max(initial=-1)) + 1
            if size * base > np.iinfo(np.int64).max:
                distinct, key = np.unique(key, return_inverse=True)
                size = len(distinct)
            key, size = key * base + column, size * base
        distinct, label = np.unique(key, return_inverse=True)
        first = np.empty(len(distinct), np.intp)
        first[label] = np.arange(len(key))  # a game of each distinct row
        coded = self._rows.take(first, axis=0)[:, :5]  # take: a faster row gather
        return np.ascontiguousarray(coded), label, self._rows[:, 5]

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
        """The games coded so far; each buffer is released once copied, so
        the coder holds no games afterwards."""
        (players, p), (races, r), (maps, m) = (
            self.players.ranked(), self.races.ranked(len(RACES)), self.maps.ranked())
        buffers, self._columns = list(self._columns), ()
        rows = np.empty((len(buffers[0]), 6), np.intp)
        for j, rank in enumerate((p, p, r, r, m, None)):
            codes, buffers[j] = np.frombuffer(buffers[j], np.int64), None
            rows[:, j] = codes if rank is None else rank[codes]
        dates, durations = (np.frombuffer(b, np.int64).copy() for b in buffers[6:])
        return Dataset(players, maps, races, rows, dates, durations, tuple(filter_log))


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


def _blocks(source: str | TextIO) -> Iterator[str | list[str]]:
    """``source`` a block of whole lines at a time: a text source as slices
    of its text that end at a line end (LF, where ``io.StringIO`` ends a
    line), a stream as lists of its own lines.

    The lines before a block's last hold fewer than 8 * _CHUNK_ROWS
    characters.  A plain line has 7 commas and a line end, so a plain
    block holds no more lines than a chunk holds rows."""
    size = 8 * _CHUNK_ROWS - 1
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + size) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        while block := source.readlines(size):
            yield block


def _csv_lines(block: str | list[str]) -> Iterable[str]:
    """The lines of a block as csv.reader is given them."""
    return io.StringIO(block) if isinstance(block, str) else block


def _plain_cells(block: str | list[str]) -> list[str] | None:
    """The cells of a plain block, line after line, or None.

    A block is plain when csv.reader would read each of its lines as
    ``line.split(",")`` with 8 cells, once each CRLF line end is an LF: it
    holds no quote, NUL or CR but those of CRLFs, every line has exactly 7
    commas (so none is blank), and no cell is longer than
    ``csv.field_size_limit()``.  The first cell of every line after the
    first keeps the LF before it, which stripping removes."""
    text = block if isinstance(block, str) else "".join(block)
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None  # a CR that ends no CRLF: csv.reader reads it as a line end
        text = text.replace("\r\n", "\n")
    cells = text.replace("\n", ",\n").split(",")
    if text.endswith("\n"):
        cells.pop()
    # each cell holds at most one LF, at its start; the lines are 8 cells
    # each when the LFs start exactly the cells 8, 16, ... of the block
    rows, breaks = len(cells) // 8, text.count("\n", 0, len(text) - 1)
    if (len(cells) != 8 * rows or breaks != rows - 1
            or "".join(cells[8::8]).count("\n") != breaks):
        return None
    if not isinstance(block, str) and len(block) != rows:
        return None  # a stream line that does not end at an LF
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:
        return None
    return cells


def _check_header(header: list[str]) -> None:
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", line=1)


def _code_plain(blocks: Iterator[str | list[str]], cells: tuple[_Cells, ...],
                coder: _Coder) -> tuple[int, str | list[str] | None]:
    """Check and code the plain blocks that open ``blocks``, the header
    first; the lines read and the first block that is not plain, if any."""
    read = 0
    for block in blocks:
        row_cells = _plain_cells(block)
        if row_cells is None:
            return read, block
        if not read:
            _check_header(row_cells[:8])
            del row_cells[:8]
            read = 1
        rows = len(row_cells) // 8
        _code_columns([row_cells[j::8] for j in range(8)], range(read + 1, read + rows + 1),
                      cells, coder)
        read += rows
    return read, None


def _read_rows(reader, read: int) -> tuple[list[list[str]], list[int], ParseError | None]:
    """Up to _CHUNK_ROWS rows with the line each ends on, counted after the
    ``read`` lines before the reader's first, and the csv error that
    stopped the read early, if one did."""
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for row in islice(reader, _CHUNK_ROWS):
            rows.append(row)
            lines.append(read + reader.line_num)
    except csv.Error as exc:
        return rows, lines, ParseError(f"malformed CSV: {exc}", read + reader.line_num)
    return rows, lines, None


def _code_rows(rows: list[list[str]], lines: list[int], cells: tuple[_Cells, ...],
               coder: _Coder) -> None:
    """Check one chunk of csv rows and append their codes: a row of the
    wrong width is a fault, a blank line is skipped, and the rest is
    :func:`_code_columns`."""
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    misfit = np.flatnonzero((width != 0) & (width != len(CSV_HEADER)))
    if misfit.size:  # the rows before it first, so the first fault in the file wins
        k = int(misfit[0])
        _code_rows(rows[:k], lines[:k], cells, coder)
        raise ParseError(f"expected {len(CSV_HEADER)} fields, got {width[k]}", lines[k])
    if not width.all():  # blank lines
        rows, lines = list(compress(rows, width)), list(compress(lines, width))
    if rows:
        _code_columns(list(zip(*rows)), lines, cells, coder)


def _code_columns(columns: list[Sequence[str]], lines: Sequence[int],
                  cells: tuple[_Cells, ...], coder: _Coder) -> None:
    """Check the 8 columns of raw cells of one chunk of rows and append
    their codes; a ParseError names the line of the first faulty row, and
    the first check it fails."""
    n = len(lines)
    winner, p1, r1, p2, r2, m, date, duration = (
        np.fromiter(map(table.__getitem__, column), np.int64, n)
        for table, column in zip(cells, columns, strict=True))
    # one column per check, in the order a row is checked
    faults = np.stack([winner < 0, p1 < 0, r1 < 0, p2 < 0, r2 < 0, m < 0, p1 == p2,
                       date < 0, duration < 0], axis=1)
    if faults.any():
        i, kind = divmod(int(faults.argmax()), faults.shape[1])
        row, column = [c[i] for c in columns], max(kind - 1, 0)  # the cell a value check read
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

    Rows are read, checked and coded a block or a chunk at a time.  Raises
    :class:`ParseError` naming the line of the first malformed row, or
    of the first CSV syntax error, whichever comes first.  Race tags
    are not validated here; use :func:`filter_valid` afterwards.
    """
    coder = _Coder()
    players, races = _named(coder.players), _named(coder.races)
    cells = (_Cells(_winner), players, races, players, races, _named(coder.maps),
             _Cells(_date_ordinal), _Cells(_seconds))
    blocks = _blocks(source)
    read, block = _code_plain(blocks, cells, coder)
    if block is None:
        if not read:
            raise ParseError("empty input: header row required")
        return coder.dataset()

    # from the first block that is not plain, csv.reader reads the rest
    reader = csv.reader(chain.from_iterable(map(_csv_lines, chain([block], blocks))))
    if not read:
        try:
            header = next(reader)  # the block holds a line
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
        _check_header(header)
    while True:
        rows, lines, error = _read_rows(reader, read)
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
