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

Both steps take one route from games to a design: any set of a
dataset's games (all of them, in order; a bootstrap draw; a
cross-validation fold) is a game count and a win count on each of the
dataset's distinct coded rows (player1, player2, race1, race2, map;
``Dataset._coded``), never a row take.  The rows that hold games are
indexed with their counts (``_index``; a bootstrap draw takes the whole
dataset's index instead) and encoded once each
(``_design``): each player code and map code has its columns
(``_columns``, or ``_index`` with the index it builds), each row's
three entries are lookups in them (``_slots``), and rows are keyed and
merged from those entries, their counts summed (``_merge``).  That
gives every bit of the index and the design of the same games taken
and encoded row by row.  The design is held as its distinct rows up to
sign, one ``scipy.sparse`` CSR matrix, each row with its game and win
counts, and each game keeps the number of its row and its sign
(``EncodedDataset``).  A subset of a design's games (a lambda-selection
fold) is a count of them on its rows.  How many directions the
anchoring leaves unidentified follows from the design's structure
alone (``_nullity``), which the fit reads once, for every design of a
stack in one call.
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
    return _index(d, np.bincount(d._coded[1]), min_games, ensure_identifiable)[0]


def _index(d: Dataset, m: np.ndarray, min_games: int, ensure_identifiable: bool = True
           ) -> tuple[ParameterIndex, np.ndarray, np.ndarray]:
    """The index of games counted on the distinct coded rows of ``d``
    (``Dataset._coded``), m[i] of them on row i and none past the end of
    ``m``: :func:`build_parameter_index`'s body.

    Also returns the column of each player code and the 3 matchup columns
    of each map code, -1 where the index has none (``_columns``).
    """
    kept = np.flatnonzero(m)
    if not len(kept):
        raise ValueError("cannot index an empty dataset")
    if min_games < 1:
        raise ValueError(f"min_games must be a positive integer, got {min_games}")
    rows, m = d._coded[0].take(kept, axis=0), m[kept]  # take: a faster row gather
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

    free, maps = live[~anchored], np.flatnonzero(np.bincount(rows[:, 4]))
    player = np.full(size, -1, np.intc)
    player[free] = np.arange(len(free))
    matchup = np.full((len(d._maps), 3), -1, np.intc)
    matchup[maps] = len(free) + np.arange(3 * len(maps)).reshape(-1, 3)
    names = np.array(d._players, dtype=object)[live]
    groups = np.split(names[np.argsort(component, kind="stable")], np.cumsum(sizes)[:-1])
    idx = _layout(names[~anchored].tolist(), names[anchored].tolist(),
                  [d._maps[code] for code in maps.tolist()], sorted(groups, key=min))
    return idx, player, matchup


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
        drawn, sign, response = self.row[games], self.sign[games], self.response[games]
        won = np.where(sign > 0, response, 1 - response)
        m = np.bincount(drawn)
        kept = np.flatnonzero(m)
        row = (np.cumsum(m > 0) - 1)[drawn]  # each game's row among the kept, as in _design
        return EncodedDataset(self.X[kept], m[kept].astype(float),
                              np.bincount(drawn, weights=won)[kept], row, sign, response,
                              self.index)


def _merge(slots: np.ndarray, sign: np.ndarray, p: int, games: np.ndarray,
           wins: np.ndarray):
    """The distinct rows up to sign of the design whose row i has its
    player1, player2 and matchup entries at the columns ``slots[i]`` (-1
    for no entry) with signs +1, -1 and ``sign[i]`` (``_slots``), with
    their game and win counts, given the ``games`` and ``wins`` of each
    row; matchup columns follow the player columns.

    Each row is oriented so that its first (lowest-column) entry is +1,
    its wins becoming its losses where that flips it, and rows equal
    after orienting are merged, their counts summed: X' diag(w) X over
    the games is then X' diag(m w) X over these rows.  Returns their
    (r, p) CSR matrix, in the order of an integer key per row (three
    base-(2p + 2) digits, one per signed entry in column order, then 0s,
    in an int64, so p can reach about a million), the number m of games
    per row and the number k of those its oriented player1 won, both as
    floats.  Empty rows (same-race games between anchored players) merge
    into one row with no entries.  The counts are whole numbers, so
    every sum is exact: neither the order of the rows nor how their
    games are split among equal rows moves any bit of the result.  Also
    returns, for each row, its merged row and its orientation (+1 or -1,
    as int8).
    """
    base = 2 * p + 2
    if base ** 3 > np.iinfo(np.int64).max:
        raise ValueError(f"{p} columns are too many for the design's row keys")
    key, orient = _row_keys(slots, sign, p)
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


def _row_keys(slots: np.ndarray, sign: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``_merge``'s key of each row and its orientation, +1 or -1; apart,
    so that its row-sized temporaries are freed before the merge."""
    one, two, third = slots.T
    # 1-based signed column per entry, 0 for none; the player entries in column order
    swap = (two >= 0) & ((one < 0) | (two < one))
    one, two = np.where(one >= 0, one + 1, 0), np.where(two >= 0, -1 - two, 0)
    first, second = np.where(swap, two, one), np.where(swap, one, two)
    third = np.where(third >= 0, (third + 1) * sign, 0)
    orient = np.where(np.where(first != 0, first, third) < 0, -1, 1)
    base = 2 * p + 2
    key, digits = np.zeros(len(slots), np.int64), np.zeros(len(slots), np.int64)
    for entry in (first, second, third):
        present = entry != 0
        key = np.where(present, key * base + entry * orient + (p + 1), key)
        digits += present
    key *= base ** (3 - digits)
    return key, orient


def _check(d: Dataset, idx: ParameterIndex | None = None) -> None:
    """Raise an EncodingError naming the first record that cannot be encoded.

    Unrecognized race tags always fail; given an index, so do players it
    does not know and, in games between different races, maps it does not know.
    """
    coded, label, _ = d._coded  # faults are found on the distinct rows
    p1, p2, r1, r2, m = coded.T
    known = np.array([idx is None or idx.knows_player(p) for p in d._players], bool)
    mapped = np.array([idx is None or name in idx.maps for name in d._maps], bool)
    faults = np.stack([~known[p1], ~known[p2], r1 >= len(RACES), r2 >= len(RACES),
                       (r1 != r2) & ~mapped[m]], axis=1)
    if faults.any():
        i = int(faults.any(axis=1)[label].argmax())  # the first game on a faulty row
        kind, (p1, p2, r1, r2, m) = int(faults[label[i]].argmax()), coded[label[i]].tolist()
        player1, player2 = d._players[p1], d._players[p2]
        reason = (f"unknown player {player1!r}", f"unknown player {player2!r}",
                  *(f"unrecognized race tag {d._races[r]!r}" for r in (r1, r2)),
                  f"unknown map {d._maps[m]!r}")[kind]
        raise EncodingError(f"record {i} ({player1} vs {player2} on {d._maps[m]}): {reason}")


def _columns(d: Dataset, idx: ParameterIndex) -> tuple[np.ndarray, np.ndarray]:
    """The column of each player code of ``d`` and the 3 matchup columns of
    each map code, in canonical pair order, -1 where ``idx`` has none:
    players and maps the index does not know get no entry, as anchored
    players do."""
    player = np.array([idx.player_columns.get(p, -1) for p in d._players], np.intc)
    matchup = np.array([[idx.matchup_columns.get((name, pair), -1)
                         for pair in CANONICAL_PAIRS] for name in d._maps],
                       np.intc).reshape(-1, 3)
    return player, matchup


def _slots(rows: np.ndarray, player: np.ndarray,
           matchup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the design rows of the coded ``rows`` (player1,
    player2, race1, race2, map), given the columns of each player code
    and map code (``_columns``): per row its player1, player2 and matchup
    column, -1 for no entry, and the sign of its matchup entry, for
    ``_merge``.  Race codes must be those of RACES.
    """
    p1, p2, r1, r2, m = rows.T
    pair, sign = _ORIENTED[r1, r2].T
    slots = np.stack([player[p1], player[p2], np.where(pair >= 0, matchup[m, pair], -1)],
                     axis=1)
    return slots, sign


def _counted_design(d: Dataset, picked: np.ndarray, min_games: int) -> EncodedDataset:
    """The games of ``d`` at ``picked`` (row indices, which may repeat),
    indexed afresh and encoded (``_design``): for s = d._take(picked),
    build_design(s, build_parameter_index(s, min_games)) to the bit,
    without the take.  It serves cross-validation training folds only,
    where re-indexing a fold is what fitting that fold alone would do; a
    bootstrap draw is encoded against the whole dataset's index."""
    idx, player, matchup = _index(d, np.bincount(d._coded[1][picked]), min_games)
    return _design(d, picked, player, matchup, idx)


def _design(d: Dataset, picked: np.ndarray | None, player: np.ndarray, matchup: np.ndarray,
            idx: ParameterIndex) -> EncodedDataset:
    """The design of the games of ``d`` at ``picked`` (row indices, which
    may repeat; None for every game, in order), as counts on d's distinct
    coded rows, given each player code's and map code's columns
    (``_columns``).  An unrecognized race tag raises an EncodingError that
    names no record; ``_check`` names it."""
    coded, label, winner = d._coded
    drawn, won = (label, winner) if picked is None else (label[picked], winner[picked])
    m = np.bincount(drawn)
    kept = np.flatnonzero(m)
    rows = coded.take(kept, axis=0)
    if (rows[:, 2:4] >= len(RACES)).any():
        raise EncodingError("a game has an unrecognized race tag")
    X, games, wins, row, orient = _merge(*_slots(rows, player, matchup), idx.p,
                                         m[kept].astype(float),
                                         np.bincount(drawn, weights=won)[kept])
    game_row = (np.cumsum(m > 0) - 1)[drawn]  # each game's row among the kept
    return EncodedDataset(X, games, wins, row[game_row], orient[game_row],
                          won.astype(np.int8), idx)


def build_design(d: Dataset, idx: ParameterIndex) -> EncodedDataset:
    """Encode every record, in dataset order; an EncodingError names the
    first record with an unknown player or map or race tag."""
    _check(d, idx)
    return _design(d, None, *_columns(d, idx), idx)


def _nullity(X: scipy.sparse.csr_array, gram: scipy.sparse.csr_array, sizes: np.ndarray,
             players: np.ndarray) -> np.ndarray:
    """Dimension of the null space of each diagonal block of a block-diagonal
    design whose every column holds data.

    Block j owns ``sizes[j]`` consecutive columns, the first ``players[j]``
    of them player columns and the other k_j matchup columns, and each row
    of X has its entries in one block.  ``gram`` is X'DX for a positive
    diagonal D, with X'X's pattern and rank (the fit passes X'WX at
    beta = 0, D = m/4).  Anchored players merge into one ground node,
    which no traversal passes through, so it joins no two blocks.  A BFS
    forest of the opponent graph, grown from a virtual node joined to a
    root of every component, gives each player an integer potential psi
    over its block's matchup columns such that every tree game's row of
    X Z vanishes, Z = [psi; I].  A null vector of a block then shifts the
    players of one of its components without ground, or is Z v with
    X Z v = 0, so its nullity is the number of such components plus
    k_j - rank(Z' X'X Z).  Every step acts on each block's rows, columns
    and nodes alone, so a block's nullity is the same in any stack.
    """
    (n, p), blocks = X.shape, len(sizes)
    starts = np.cumsum(sizes) - sizes
    matchups = starts + players  # each block's first matchup column
    block = np.repeat(np.arange(blocks), sizes)  # of each column
    is_player = np.arange(p) < np.repeat(matchups, sizes)
    # nodes: the columns, then a virtual node, the ground and a sentinel
    virtual, ground, sentinel = p, p + 1, p + 2
    u, v = _ends(X, is_player, ground)
    grounded = np.zeros(sentinel + 1, bool)
    grounded[np.where(v == ground, u, sentinel)] = True
    grounded[np.where(u == ground, v, sentinel)] = True

    # X'X's player rows: the opponent graph, symmetric, plus edges into
    # the matchup nodes, which have none out.  Directed traversal of it
    # therefore equals undirected traversal of the players, with each
    # matchup node a component of its own, and skips a transpose.  The
    # forest's graph is this one plus the virtual node's row of roots, in
    # the same buffers.
    lengths = np.where(is_player, np.diff(gram.indptr), 0)
    edges, nodes = int(lengths.sum()), np.flatnonzero(is_player)
    indices = np.empty(edges + len(nodes), gram.indices.dtype)
    indices[:edges] = gram.indices[np.repeat(is_player, np.diff(gram.indptr))]
    indptr = np.zeros(p + 2, gram.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:-1])
    ones = np.ones(len(indices))
    graph = scipy.sparse.csr_array((ones[:edges], indices[:edges], indptr[:-1]), shape=(p, p))
    labels = connected_components(graph, directed=True, connection="strong")[1]
    # root each component at a player who met an anchored one, if any, hung from ground
    by_label = nodes[np.lexsort((~grounded[nodes], labels[nodes]))]
    roots = by_label[np.unique(labels[by_label], return_index=True)[1]]
    indices[edges:edges + len(roots)] = roots
    indptr[-1] = edges + len(roots)
    forest = scipy.sparse.csr_array((ones[:indptr[-1]], indices[:indptr[-1]], indptr),
                                    shape=(p + 1, p + 1))
    pred = breadth_first_order(forest, virtual, directed=True)[1]
    parent = np.full(sentinel + 1, -1)
    parent[nodes] = pred[nodes]
    parent[roots] = np.where(grounded[roots], ground, -1)
    # a tree game per child: any game between the child and its parent
    tree = np.full(sentinel + 1, -1)
    tree[np.where(parent[u] == v, u, sentinel)] = np.arange(n)
    tree[np.where(parent[v] == u, v, sentinel)] = np.arange(n)
    child = np.flatnonzero(tree[:p] >= 0)
    game = tree[child]

    # psi[child] - psi[parent] cancels the game's matchup entry s, the
    # last of its row: -s when the child is player1, +s when player2
    last = X.indptr[game + 1] - 1
    entry = ~is_player[X.indices[last]]
    child, game, last = child[entry], game[entry], last[entry]
    column = X.indices[last]
    k = sizes - players
    psi = np.zeros((sentinel + 1, k.max(initial=0)))
    psi[child, column - matchups[block[column]]] = np.where(u[game] == child, -1.0, 1.0) \
        * X.data[last]
    # pointer doubling sums each node's steps up to its root
    up = np.where(parent >= 0, parent, np.arange(sentinel + 1))
    while np.any(up[up] != up):
        psi += psi[up]
        up = up[up]

    Z = psi[:p]
    column = np.flatnonzero(~is_player)
    Z[column, column - matchups[block[column]]] = 1.0
    product = gram @ Z
    nullity = np.bincount(block[roots[~grounded[roots]]], minlength=blocks)
    for j, (lo, hi, kj) in enumerate(zip(starts.tolist(), (starts + sizes).tolist(),
                                         k.tolist())):
        Zj = np.ascontiguousarray(Z[lo:hi, :kj])
        eigenvalues = np.linalg.eigvalsh(Zj.T @ np.ascontiguousarray(product[lo:hi, :kj]))
        nullity[j] += kj - np.count_nonzero(
            eigenvalues > eigenvalues.max(initial=0.0) * kj * np.finfo(float).eps)
    return nullity


def _ends(X: scipy.sparse.csr_array, is_player: np.ndarray,
          ground: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's player1 and player2 node: the column of its +1 and of its
    -1 player entry, or ``ground`` for an anchored player; apart, so that
    its entry-sized temporaries are freed before the traversal."""
    n = X.shape[0]
    ends = np.full(2 * n, ground, np.intc)
    row = np.repeat(np.arange(n, dtype=np.intc), np.diff(X.indptr))
    on_player = is_player[X.indices]
    ends[row[on_player] + n * (X.data[on_player] < 0)] = X.indices[on_player]
    return ends[:n], ends[n:]
