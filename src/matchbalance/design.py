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

Both steps are array operations on a dataset's integer-coded columns,
so a bootstrap draw or a cross-validation fold, a row take of those
columns, is indexed and encoded without building a record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .data import RACES, Dataset

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


# (canonical pair position, -1 for same race; sign) per ordered pair of race codes
_ORIENTED = np.array([[(_PAIR_POSITION.get(pair, -1), sign) for pair, sign in
                       (canonical_orientation(a, b) for b in RACES)] for a in RACES])


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

    def matchup_column(self, map_name: str, pair: tuple[str, str]) -> int:
        return self.matchup_columns[(map_name, pair)]

    def knows_player(self, player: str) -> bool:
        return player in self.player_columns or player in self.anchored_players


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
    if not len(d):
        raise ValueError("cannot index an empty dataset")
    if min_games < 1:
        raise ValueError(f"min_games must be a positive integer, got {min_games}")
    games = d._games()
    live = np.flatnonzero(games)  # codes of the players present, in id order
    pairs = (d._rows[:, 0], d._rows[:, 1])
    graph = scipy.sparse.coo_array((np.ones(len(d)), pairs),
                                   shape=(len(games), len(games)))
    labels = connected_components(graph, directed=False)[1][live]
    _, component = np.unique(labels, return_inverse=True)  # numbered 0, 1, ...
    sizes = np.bincount(component)
    games = games[live]
    anchored = games < min_games
    if ensure_identifiable:
        # each component's fewest-games member; the stable sort breaks ties by id
        by_games = np.lexsort((games, component))
        fewest = by_games[np.cumsum(sizes) - sizes]
        anchored[fewest[np.bincount(component, weights=anchored) == 0]] = True

    names = np.array(d._players, dtype=object)[live]
    player_columns = {p: i for i, p in enumerate(names[~anchored].tolist())}
    maps = tuple(d._maps[m] for m in np.unique(d._rows[:, 4]).tolist())
    groups = np.split(names[np.argsort(component, kind="stable")], np.cumsum(sizes)[:-1])
    base = len(player_columns)
    matchup_columns = {
        (m, pair): base + 3 * mi + _PAIR_POSITION[pair]
        for mi, m in enumerate(maps)
        for pair in CANONICAL_PAIRS
    }
    return ParameterIndex(
        player_columns=player_columns,
        anchored_players=frozenset(names[anchored].tolist()),
        matchup_columns=matchup_columns,
        maps=maps,
        p=base + 3 * len(maps),
        components=tuple(sorted(map(frozenset, groups), key=min)),
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


def _check(d: Dataset, idx: ParameterIndex | None = None) -> None:
    """Raise an EncodingError naming the first record that cannot be encoded.

    Unrecognized race tags always fail; given an index, so do players it
    does not know and, in games between different races, maps it does not know.
    """
    p1, p2, r1, r2, m, _ = d._rows.T
    known = np.array([idx is None or idx.knows_player(p) for p in d._players], bool)
    mapped = np.array([idx is None or name in idx.maps for name in d._maps], bool)
    faults = np.stack([~known[p1], ~known[p2], r1 >= len(RACES), r2 >= len(RACES),
                       (r1 != r2) & ~mapped[m]], axis=1)
    if faults.any():
        i, kind = divmod(int(faults.argmax()), faults.shape[1])
        player1, player2 = d._players[p1[i]], d._players[p2[i]]
        reason = (f"unknown player {player1!r}", f"unknown player {player2!r}",
                  *(f"unrecognized race tag {d._races[r]!r}" for r in (r1[i], r2[i])),
                  f"unknown map {d._maps[m[i]]!r}")[kind]
        raise EncodingError(
            f"record {i} ({player1} vs {player2} on {d._maps[m[i]]}): {reason}")


def _encode(d: Dataset, idx: ParameterIndex) -> EncodedDataset:
    """Encode a dataset's coded rows, in order, into the CSR design.

    Each row has a player1, a player2 and a matchup slot holding a
    column, or -1 when the slot has no entry; the slots with a column
    are the COO triplets (row, column, sign).  Players and maps the
    index does not know contribute nothing, as anchored players do.
    """
    _check(d)
    p1, p2, r1, r2, m, winner = d._rows.T
    player = np.array([idx.player_columns.get(p, -1) for p in d._players], np.intc)
    matchup = np.array([[idx.matchup_columns.get((name, pair), -1)
                         for pair in CANONICAL_PAIRS] for name in d._maps],
                       np.intc).reshape(-1, 3)
    pair, sign = _ORIENTED[r1, r2].T
    slots = np.stack([player[p1], player[p2], np.where(pair >= 0, matchup[m, pair], -1)],
                     axis=1)
    signs = np.stack([np.ones_like(sign), -np.ones_like(sign), sign], axis=1)
    present = slots >= 0
    indptr = np.r_[0, np.cumsum(present.sum(axis=1))].astype(np.intc)
    X = scipy.sparse.csr_array((signs[present].astype(float), slots[present], indptr),
                               shape=(len(slots), idx.p))
    X.sort_indices()
    return EncodedDataset(X, winner.astype(np.int8), idx)


def build_design(d: Dataset, idx: ParameterIndex) -> EncodedDataset:
    """Encode every record, in dataset order; an EncodingError names the
    first record with an unknown player or map or race tag."""
    _check(d, idx)
    return _encode(d, idx)


def index_to_obj(idx: ParameterIndex) -> dict:
    """JSON-ready representation (column <-> symbol table)."""
    return {
        "p": idx.p,
        "player_columns": dict(sorted(idx.player_columns.items())),
        "anchored_players": sorted(idx.anchored_players),
        "maps": list(idx.maps),
        "canonical_pairs": [list(pair) for pair in CANONICAL_PAIRS],
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
    )
