"""Coefficient-column bookkeeping and signed sparse design encoding.

Each game's row of the design has at most three nonzero entries, all
in {+1, -1}: +1 at player1's column, -1 at player2's column, and one
signed entry at the map/race-matchup column when the races differ.
Each unordered race pair owns a single column per map, stored under its
canonical orientation; games observed in the reversed orientation carry
sign -1 instead of a second parameter.  Swapping the two players of any
record therefore negates its row exactly, which forces
P(swapped) = 1 - P for every coefficient vector.

Low-activity players (and, if needed for identifiability, one player
per connected component of the opponent graph) are anchored: their
skill is fixed to zero and they own no column.

Both steps are array operations on a dataset's integer-coded columns.
The design is held as its distinct rows up to sign, one ``scipy.sparse``
CSR matrix, each row with its game and win counts (``_merge``), and
each game keeps the number of its row and its sign (``EncodedDataset``):
the fit reads the rows and their counts, per-game predictions a row and
a sign.  A subset of a design's games (a lambda-selection fold) is a
count of them on its rows.  A bootstrap draw or a cross-validation
training fold takes no rows: it is a game count and a win count on each
of the dataset's distinct coded rows (player1, player2, race1, race2,
map; ``Dataset._coded``), and the rows it holds are indexed, each with
its games, encoded once each, and merged with their counts summed
(``_counted_design``).  That gives every bit of the index and the
design of the same games taken row by row.  How many directions the
anchoring leaves unidentified follows from the design's structure alone
(``_nullity``), which the fit reads once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

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
    canonical order), so columns form the gapless range [0, p).  Both
    column dicts hold their keys in column order (``_layout``).
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
    return _index(d, d._rows, None, min_games, ensure_identifiable)


def _index(d: Dataset, rows: np.ndarray, m: np.ndarray | None, min_games: int,
           ensure_identifiable: bool = True) -> ParameterIndex:
    """The index of the games on the coded ``rows`` of ``d`` (player1,
    player2, race1, race2, map, ...), row i holding m[i] games, or one
    each when ``m`` is None: :func:`build_parameter_index`'s body."""
    if not len(rows):
        raise ValueError("cannot index an empty dataset")
    if min_games < 1:
        raise ValueError(f"min_games must be a positive integer, got {min_games}")
    size = len(d._players)
    games = np.bincount(rows[:, 0], m, size) + np.bincount(rows[:, 1], m, size)
    live = np.flatnonzero(games)  # codes of the players present, in id order
    graph = scipy.sparse.coo_array((np.ones(len(rows)), (rows[:, 0], rows[:, 1])),
                                   shape=(size, size))
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
    groups = np.split(names[np.argsort(component, kind="stable")], np.cumsum(sizes)[:-1])
    return _layout(names[~anchored].tolist(), names[anchored].tolist(),
                   [d._maps[code] for code in np.unique(rows[:, 4]).tolist()],
                   sorted(groups, key=min))


def _layout(players, anchored_players, maps, components) -> ParameterIndex:
    """The index whose columns are ``players`` in the order given, then 3
    per map, maps in the order given and pairs in canonical order."""
    base = len(players)
    return ParameterIndex(
        player_columns={p: i for i, p in enumerate(players)},
        anchored_players=frozenset(anchored_players),
        matchup_columns={(m, pair): base + 3 * mi + _PAIR_POSITION[pair]
                         for mi, m in enumerate(maps) for pair in CANONICAL_PAIRS},
        maps=tuple(maps),
        p=base + 3 * len(maps),
        components=tuple(map(frozenset, components)),
    )


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """The design of n games, held on its distinct rows up to sign.

    ``X`` is the (r, p) CSR matrix of the distinct rows (``_merge``),
    each oriented so that its first entry is +1; ``games`` and ``wins``
    count each row's games and its oriented player1's wins among them.
    Game i reads row ``row[i]`` of ``X`` times ``sign[i]`` (+1 or -1)
    and has outcome ``response[i]``, in game order.  ``X`` stores only
    the +1/-1 entries, never zeros; same-race games between anchored
    players share one empty row and contribute nothing.
    """

    X: scipy.sparse.csr_array
    games: np.ndarray
    wins: np.ndarray
    row: np.ndarray
    sign: np.ndarray
    response: np.ndarray
    index: ParameterIndex

    @property
    def n(self) -> int:
        return len(self.row)

    @property
    def p(self) -> int:
        return self.index.p

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        """Each game's eta, in game order, bitwise that of its own signed
        row: ``+ 0.0`` turns the -0.0 of a flipped zero into +0.0."""
        return self.sign * (self.X @ beta)[self.row] + 0.0

    def subset(self, games: np.ndarray) -> "EncodedDataset":
        """The design of the games at ``games`` (indices, which may repeat),
        as game and win counts on the rows of ``X`` that hold one."""
        row, sign, response = self.row[games], self.sign[games], self.response[games]
        kept, row = np.unique(row, return_inverse=True)
        won = np.where(sign > 0, response, 1 - response)
        return EncodedDataset(self.X[kept], np.bincount(row).astype(float),
                              np.bincount(row, weights=won, minlength=len(kept)),
                              row, sign, response, self.index)


def _merge(X: scipy.sparse.csr_array, games: np.ndarray, wins: np.ndarray):
    """The distinct rows of ``X`` up to sign, with their game and win
    counts, given the ``games`` and ``wins`` of each row of ``X``.

    Each row is oriented so that its first (lowest-column) entry is +1,
    its wins becoming its losses where that flips it, and rows equal
    after orienting are merged, their counts summed: X' diag(w) X over
    the games is then X' diag(m w) X over these rows.  Returns their
    (r, p) CSR matrix, in the order of an integer key per row (three
    base-(2p + 2) digits, one per signed entry, in an int64, so p can
    reach about a million), the number m of games per row and the number
    k of those its oriented player1 won, both as floats.  Empty rows
    (same-race games between anchored players) merge into one row with
    no entries.  The counts are whole numbers, so every sum is exact:
    neither the order of the rows nor how their games are split among
    equal rows moves any bit of the result.  Also returns, for each row
    of ``X``, its merged row and its orientation (+1 or -1, as int8).
    """
    p = X.shape[1]
    start, length = X.indptr[:-1], np.diff(X.indptr)
    # 1-based signed column per entry, then a 0 that rows shorter than 3 read
    signed = np.append(np.where(X.data > 0, X.indices + 1, -1 - X.indices), 0)
    orient = np.where((length > 0) & (signed.take(start, mode="clip") < 0), -1, 1)
    base = 2 * p + 2
    if base ** 3 > np.iinfo(np.int64).max:
        raise ValueError(f"{p} columns are too many for the design's row keys")
    key = np.zeros(len(start), np.int64)
    for j in range(3):
        key = key * base + np.where(
            length > j, signed.take(start + j, mode="clip") * orient + (p + 1), 0)
    won = np.where(orient > 0, wins, games - wins)
    keys, row = np.unique(key, return_inverse=True)
    games = np.bincount(row, weights=games, minlength=len(keys))
    wins = np.bincount(row, weights=won, minlength=len(keys))
    digits = np.stack([keys // base ** 2, keys // base % base, keys % base], axis=1)
    present = digits > 0
    entries = digits[present] - (p + 1)
    indptr = np.r_[0, np.cumsum(present.sum(axis=1))].astype(np.intc)
    rows = scipy.sparse.csr_array(
        (np.sign(entries).astype(float), (np.abs(entries) - 1).astype(np.intc), indptr),
        shape=(len(keys), p))
    return rows, games, wins, row, orient.astype(np.int8)


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
    """Encode a dataset's games, in order: each game's row, merged into
    the design's distinct rows.

    The caller has checked the race tags (``_check``).
    """
    response = d._rows[:, 5].astype(np.int8)
    return EncodedDataset(*_merge(_design_matrix(d, d._rows, idx), np.ones(len(response)),
                                  response), response, idx)


def _design_matrix(d: Dataset, rows: np.ndarray,
                   idx: ParameterIndex) -> scipy.sparse.csr_array:
    """The CSR design of the coded ``rows`` of ``d`` (player1, player2,
    race1, race2, map, ...), in order.

    Each row has a player1, a player2 and a matchup slot holding a
    column, or -1 when the slot has no entry; the slots with a column
    are the COO triplets (row, column, sign).  Players and maps the
    index does not know contribute nothing, as anchored players do.
    Race codes must be those of RACES.
    """
    p1, p2, r1, r2, m = rows[:, :5].T
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
    return X


def _counted_design(d: Dataset, picked: np.ndarray, min_games: int) -> EncodedDataset:
    """The games of ``d`` at ``picked`` (row indices, which may repeat), as
    game and win counts on d's distinct coded rows (``Dataset._coded``),
    indexed and encoded.

    For s = d._take(picked) this is build_design(s, build_parameter_index(s,
    min_games)) to the bit, without the take: rows that hold no game drop
    out, the index counts each row's games, and the distinct-row merge
    sums them.  A game with an unrecognized race tag raises an
    EncodingError, as build_design would; the caller that wants the
    message naming the record checks ``d`` once (``_check``).
    """
    coded, label, winner = d._coded
    drawn, won = label[picked], winner[picked]
    m = np.bincount(drawn, minlength=len(coded))
    kept = np.flatnonzero(m)
    rows, m = coded[kept], m[kept]
    if (rows[:, 2:4] >= len(RACES)).any():
        raise EncodingError("a game has an unrecognized race tag")
    idx = _index(d, rows, m, min_games)
    X, games, wins, row, orient = _merge(
        _design_matrix(d, rows, idx), m.astype(float),
        np.bincount(drawn, weights=won, minlength=len(coded))[kept])
    position = np.zeros(len(coded), np.intp)
    position[kept] = np.arange(len(kept))
    game_row = position[drawn]
    return EncodedDataset(X, games, wins, row[game_row], orient[game_row],
                          won.astype(np.int8), idx)


def build_design(d: Dataset, idx: ParameterIndex) -> EncodedDataset:
    """Encode every record, in dataset order; an EncodingError names the
    first record with an unknown player or map or race tag."""
    _check(d, idx)
    return _encode(d, idx)


def _nullity(X: scipy.sparse.csr_array, Xt: scipy.sparse.csr_array, players: int,
             gram: scipy.sparse.csr_array) -> int:
    """Dimension of the null space of a design whose every column holds data.

    ``Xt`` is the design's transpose as CSR.  The first ``players``
    columns are player columns, the other k matchup columns; ``gram`` is
    X'DX for a positive diagonal D, with X'X's pattern and rank (the
    fit passes X'WX at beta = 0, D = m/4).  Anchored players merge into
    one ground node.  A BFS forest of the opponent graph gives each
    player an integer potential psi over the matchup columns such that
    every tree game's row of X Z vanishes, Z = [psi; I].  A null vector then shifts
    the players of one component without ground, or is Z v with
    X Z v = 0, so the nullity is the number of such components plus
    k - rank(Z' X'X Z).
    """
    (n, p), ground = X.shape, players
    k = p - players
    split = Xt.indptr[players]
    # each game's player1 and player2 node; ground stands for anchored players
    ends = np.full(2 * n, ground)
    ends[Xt.indices[:split] + n * (Xt.data[:split] < 0)] = np.repeat(
        np.arange(players), np.diff(Xt.indptr[:players + 1]))
    u, v = ends[:n], ends[n:]
    grounded = np.zeros(players + 1, bool)
    grounded[np.where(v == ground, u, ground)] = True
    grounded[np.where(u == ground, v, ground)] = True

    # X'X's player rows: the opponent graph, symmetric, plus edges into
    # the matchup nodes, which have none out.  Directed traversal of it
    # therefore equals undirected traversal of the players, with each
    # matchup node a component of its own, and skips a transpose.
    nnz = gram.indptr[players]
    graph = scipy.sparse.csr_array(
        (gram.data[:nnz], gram.indices[:nnz],
         np.append(gram.indptr[:players + 1], np.full(k, nnz, gram.indptr.dtype))),
        shape=(p, p))
    count, labels = connected_components(graph, directed=True, connection="strong")
    # root each component at a player who met an anchored one, if any, hung from ground
    by_label = np.lexsort((~grounded[:players], labels[:players]))
    roots = by_label[np.unique(labels[by_label], return_index=True)[1]]
    parent = np.full(players + 1, -1)
    for root in roots:
        order, pred = breadth_first_order(graph, root, directed=True)
        order = order[order < players]
        parent[order[1:]] = pred[order[1:]]
    parent[roots[grounded[roots]]] = ground
    # a tree game per child: any game between the child and its parent
    tree = np.full(players + 2, -1)
    games = np.arange(n)
    tree[np.where(parent[u] == v, u, players + 1)] = games
    tree[np.where(parent[v] == u, v, players + 1)] = games
    child = np.flatnonzero(tree[:players] >= 0)
    game = tree[child]

    # psi[child] - psi[parent] cancels the game's matchup entry s, the
    # last of its row: -s when the child is player1, +s when player2
    last = X.indptr[game + 1] - 1
    entry = X.indices[last] >= players
    child, game, last = child[entry], game[entry], last[entry]
    psi = np.zeros((players + 1, k))
    psi[child, X.indices[last] - players] = np.where(u[game] == child, -1.0, 1.0) \
        * X.data[last]
    # pointer doubling sums each node's steps up to its root
    up = np.where(parent >= 0, parent, np.arange(players + 1))
    while np.any(up[up] != up):
        psi += psi[up]
        up = up[up]

    Z = np.vstack([psi[:players], np.eye(k)])
    eigenvalues = np.linalg.eigvalsh(Z.T @ (gram @ Z))  # of a k x k Gram matrix
    rank = np.count_nonzero(eigenvalues > eigenvalues.max(initial=0.0) * k * np.finfo(float).eps)
    ungrounded = len(roots) - np.count_nonzero(grounded[roots])
    return int(ungrounded + k - rank)
