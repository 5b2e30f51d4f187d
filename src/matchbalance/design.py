"""Coefficient-column bookkeeping and signed sparse design encoding.

The design is one ``scipy.sparse`` CSR matrix with a row per match and
at most three nonzero entries per row, all in {+1, -1}: +1 at player1's
column, -1 at player2's column, and one signed entry at the
map/race-matchup column when the races differ.  Each unordered race
pair owns a single column per map, stored under its canonical
orientation; games observed in the reversed orientation carry sign -1
instead of a second parameter.  Swapping the two players of any record
therefore negates its row exactly, which forces P(swapped) = 1 - P for
every coefficient vector.

Low-activity players (and, if needed for identifiability, one player
per connected component of the opponent graph) are anchored: their
skill is fixed to zero and they own no column.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .data import RACES, Dataset, MatchRecord, games_per_player

CANONICAL_PAIRS: tuple[tuple[str, str], ...] = (
    ("Terran", "Protoss"),
    ("Terran", "Zerg"),
    ("Protoss", "Zerg"),
)

_PAIR_POSITION = {pair: i for i, pair in enumerate(CANONICAL_PAIRS)}


class EncodingError(ValueError):
    """A record refers to a player or map the index does not know."""


def canonical_orientation(race1: str, race2: str) -> tuple[tuple[str, str] | None, int]:
    """Map an ordered race pairing onto (canonical pair, sign).

    Returns (None, 0) for same-race pairings, which carry no matchup
    term.  Raises EncodingError for unrecognized race tags.
    """
    for tag in (race1, race2):
        if tag not in RACES:
            raise EncodingError(f"unrecognized race tag {tag!r}")
    if race1 == race2:
        return None, 0
    if (race1, race2) in _PAIR_POSITION:
        return (race1, race2), 1
    return (race2, race1), -1


_ORIENTATION = {
    (race1, race2): canonical_orientation(race1, race2)
    for race1 in RACES
    for race2 in RACES
}


def _components(d: Dataset) -> tuple[frozenset[str], ...]:
    """Connected components of the opponent graph (players joined by games)."""
    players = sorted(d.players)
    code = {p: i for i, p in enumerate(players)}
    n = len(d.records)
    first = np.fromiter((code[r.player1] for r in d.records), np.intc, n)
    second = np.fromiter((code[r.player2] for r in d.records), np.intc, n)
    graph = scipy.sparse.coo_array(
        (np.ones(n), (first, second)), shape=(len(players), len(players))
    )
    count, labels = connected_components(graph, directed=False)
    groups: list[list[str]] = [[] for _ in range(count)]
    for player, label in zip(players, labels.tolist()):
        groups[label].append(player)
    return tuple(frozenset(g) for g in sorted(groups, key=min))


@dataclass(frozen=True)
class ParameterIndex:
    """Bijection between model symbols and coefficient-vector positions.

    Player columns come first (non-anchored players, sorted by id),
    followed by 3 matchup columns per map (maps sorted, pairs in
    canonical order), so columns form the gapless range [0, p).
    """

    player_columns: dict[str, int]
    anchored_players: frozenset[str]
    matchup_columns: dict[tuple[str, tuple[str, str]], int]
    maps: tuple[str, ...]
    p: int
    components: tuple[frozenset[str], ...]
    canonical_pairs: tuple[tuple[str, str], ...] = CANONICAL_PAIRS

    def matchup_column(self, map_name: str, pair: tuple[str, str]) -> int:
        return self.matchup_columns[(map_name, pair)]

    def knows_player(self, player: str) -> bool:
        return player in self.player_columns or player in self.anchored_players

    def column_symbols(self) -> list[str]:
        """Human-readable symbol per column, in column order."""
        symbols = [""] * self.p
        for player, col in self.player_columns.items():
            symbols[col] = f"player:{player}"
        for (map_name, (r1, r2)), col in self.matchup_columns.items():
            symbols[col] = f"matchup:{map_name}:{r1}>{r2}"
        return symbols


def build_parameter_index(
    d: Dataset, min_games: int = 6, *, ensure_identifiable: bool = True
) -> ParameterIndex:
    """Assign coefficient columns, anchoring low-activity players.

    Players with fewer than ``min_games`` appearances are anchored to
    zero.  With ``ensure_identifiable`` (the default), any connected
    component of the opponent graph left without an anchored player
    gets one more anchor: the member with the fewest games, ties broken
    by lexicographically smallest id.  Matchup columns are created for
    every (map, canonical pair) combination, observed or not.
    """
    if not d.records:
        raise ValueError("cannot index an empty dataset")
    if min_games < 1:
        raise ValueError(f"min_games must be a positive integer, got {min_games}")
    counts = games_per_player(d)
    anchored = {p for p, c in counts.items() if c < min_games}
    components = _components(d)
    if ensure_identifiable:
        for component in components:
            if component & anchored:
                continue
            anchored.add(min(component, key=lambda p: (counts[p], p)))

    player_columns = {
        p: i for i, p in enumerate(sorted(d.players - anchored))
    }
    maps = tuple(sorted(d.maps))
    base = len(player_columns)
    matchup_columns = {
        (m, pair): base + 3 * mi + _PAIR_POSITION[pair]
        for mi, m in enumerate(maps)
        for pair in CANONICAL_PAIRS
    }
    return ParameterIndex(
        player_columns=player_columns,
        anchored_players=frozenset(anchored),
        matchup_columns=matchup_columns,
        maps=maps,
        p=base + 3 * len(maps),
        components=components,
    )


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """The design as an (n, p) CSR matrix ``X`` plus the binary responses.

    ``X`` stores only the +1/-1 entries, never zeros; a same-race game
    between two anchored players is an empty row and contributes
    nothing.
    """

    X: scipy.sparse.csr_array
    response: np.ndarray
    index: ParameterIndex

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.index.p

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        return self.X @ beta

    def column_counts(self) -> np.ndarray:
        """Number of records touching each column (its CSC column length)."""
        return np.bincount(self.X.indices, minlength=self.p)

    def subset(self, rows: np.ndarray) -> "EncodedDataset":
        return EncodedDataset(self.X[rows], self.response[rows], self.index)


def _encode(
    records: Sequence[MatchRecord], idx: ParameterIndex, *, strict: bool = True
) -> EncodedDataset:
    """Encode ``records`` in order into the CSR design.

    Each record yields a player1, a player2 and a matchup slot holding a
    column, or -1 when the slot has no entry; the slots with a column
    are the COO triplets (row, column, sign).  With ``strict`` a player
    or map the index does not know raises an EncodingError naming the
    record; otherwise it contributes nothing, as an anchored player
    does.  Unrecognized race tags always raise.
    """
    players = idx.player_columns
    matchups = idx.matchup_columns
    cols = array("i")  # three slots per record
    matchup_signs = array("b")
    for i, r in enumerate(records):
        try:
            for player in (r.player1, r.player2):
                col = players.get(player, -1)
                if col < 0 and strict and player not in idx.anchored_players:
                    raise EncodingError(f"unknown player {player!r}")
                cols.append(col)
            orientation = _ORIENTATION.get((r.race1, r.race2))
            pair, sign = orientation or canonical_orientation(r.race1, r.race2)
            col = matchups.get((r.map_name, pair), -1)
            if col < 0 and strict and pair is not None:
                raise EncodingError(f"unknown map {r.map_name!r}")
            cols.append(col)
            matchup_signs.append(sign)
        except EncodingError as exc:
            raise EncodingError(
                f"record {i} ({r.player1} vs {r.player2} on {r.map_name}): {exc}"
            ) from exc
    slots = np.frombuffer(cols, dtype=np.intc).reshape(-1, 3)
    signs = np.tile(np.array([1, -1, 0], dtype=np.int8), (len(slots), 1))
    signs[:, 2] = matchup_signs
    present = slots >= 0
    indptr = np.zeros(len(slots) + 1, dtype=np.intc)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    X = scipy.sparse.csr_array(
        (signs[present].astype(float), slots[present], indptr),
        shape=(len(records), idx.p),
    )
    X.sort_indices()
    response = np.fromiter((r.winner for r in records), np.int8, len(records))
    return EncodedDataset(X, response, idx)


def encode_row(r: MatchRecord, idx: ParameterIndex) -> dict[int, int]:
    """Encode one record as a {column: sign} sparse row."""
    X = _encode([r], idx).X
    return dict(zip(X.indices.tolist(), X.data.astype(int).tolist()))


def build_design(d: Dataset, idx: ParameterIndex) -> EncodedDataset:
    """Encode every record, in dataset order."""
    return _encode(d.records, idx)


def index_to_obj(idx: ParameterIndex) -> dict:
    """JSON-ready representation (column <-> symbol table)."""
    return {
        "p": idx.p,
        "player_columns": dict(sorted(idx.player_columns.items())),
        "anchored_players": sorted(idx.anchored_players),
        "maps": list(idx.maps),
        "canonical_pairs": [list(pair) for pair in idx.canonical_pairs],
        "matchup_columns": [
            {"map": m, "race1": pair[0], "race2": pair[1], "column": col}
            for (m, pair), col in sorted(idx.matchup_columns.items(), key=lambda kv: kv[1])
        ],
        "components": [sorted(c) for c in idx.components],
    }


def index_from_obj(obj: dict) -> ParameterIndex:
    matchup_columns = {
        (mc["map"], (mc["race1"], mc["race2"])): mc["column"]
        for mc in obj["matchup_columns"]
    }
    return ParameterIndex(
        player_columns={k: int(v) for k, v in obj["player_columns"].items()},
        anchored_players=frozenset(obj["anchored_players"]),
        matchup_columns=matchup_columns,
        maps=tuple(obj["maps"]),
        p=int(obj["p"]),
        components=tuple(frozenset(c) for c in obj["components"]),
        canonical_pairs=tuple(tuple(pair) for pair in obj["canonical_pairs"]),
    )
