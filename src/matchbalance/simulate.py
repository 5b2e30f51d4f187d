"""Synthetic-league generation with known ground truth.

The generator draws winners from exactly the probability the encoder
would assign, so every statistical claim about the pipeline can be
tested against a league whose true parameters are known.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .data import RACES, Dataset, _Coder
from .design import _ORIENTED, CANONICAL_PAIRS, canonical_orientation
from .glm import FitResult, sigmoid

SCHEDULES = ("uniform", "tournament_tail")


@dataclass
class LeagueTruth:
    """True parameters of a synthetic league.

    ``matchup_effects`` must cover every (map, canonical pair)
    combination.  ``schedule`` controls how opponents are drawn:
    "uniform" pairs players uniformly, "tournament_tail" draws
    players with heavy-tailed participation weights so game counts look
    tournament-like (a few very active players, many one-and-done).
    """

    player_skills: dict[str, float]
    matchup_effects: dict[tuple[str, tuple[str, str]], float]
    race_of: dict[str, str]
    schedule: str = "uniform"

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        maps = {m for m, _ in self.matchup_effects}
        missing = [
            (m, pair)
            for m in maps
            for pair in CANONICAL_PAIRS
            if (m, pair) not in self.matchup_effects
        ]
        if missing:
            raise ValueError(f"matchup_effects missing combinations: {missing}")
        for player, race in self.race_of.items():
            if race not in RACES:
                raise ValueError(f"player {player!r} has invalid race {race!r}")

    @property
    def maps(self) -> tuple[str, ...]:
        return tuple(sorted({m for m, _ in self.matchup_effects}))


def random_league(
    n_players: int,
    n_maps: int,
    rng: np.random.Generator,
    *,
    skill_sd: float = 1.0,
    matchup_sd: float = 1.0,
    schedule: str = "uniform",
) -> LeagueTruth:
    """Draw a league with normal skills and matchup effects; each sd must be finite, >= 0."""
    for name, sd in (("skill_sd", skill_sd), ("matchup_sd", matchup_sd)):
        if not 0.0 <= sd < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {sd}")
    players = [f"player_{i:03d}" for i in range(n_players)]
    maps = [f"map_{j:02d}" for j in range(n_maps)]
    keys = [(m, pair) for m in maps for pair in CANONICAL_PAIRS]
    skills = rng.normal(0.0, skill_sd, n_players) if skill_sd > 0 else np.zeros(n_players)
    effects = rng.normal(0.0, matchup_sd, len(keys)) if matchup_sd > 0 else np.zeros(len(keys))
    races = rng.integers(len(RACES), size=n_players)
    return LeagueTruth(dict(zip(players, skills.tolist())), dict(zip(keys, effects.tolist())),
                       {p: RACES[r] for p, r in zip(players, races.tolist())},
                       schedule=schedule)


def true_eta(truth: LeagueTruth, player1: str, player2: str, map_name: str) -> float:
    """Linear predictor under the truth, matching the encoder's arithmetic."""
    race1, race2 = truth.race_of[player1], truth.race_of[player2]
    pair, sign = canonical_orientation(race1, race2)
    eta = truth.player_skills[player1] - truth.player_skills[player2]
    if pair is not None:
        eta += sign * truth.matchup_effects[(map_name, pair)]
    return eta


def generate(truth: LeagueTruth, n: int, rng: np.random.Generator) -> Dataset:
    """Draw ``n`` games; winners are Bernoulli(sigmoid(true eta)).

    Maps are uniform, dates advance over a synthetic six-month window,
    durations are arbitrary positive seconds.

    The games, and the state ``rng`` is left in, are those of drawing
    each game in turn with ``rng.choice(len(players), size=2,
    replace=False, p=weights)``, ``rng.integers(len(maps))``,
    ``rng.random() < sigmoid(true_eta(...))`` and ``rng.integers(300,
    3601)``.  The draws are decoded from the bit generator's raw words
    instead (:func:`_replay`), and eta is computed for all games at once,
    so ``rng`` needs a bit generator with 64-bit words and a cached
    32-bit half: PCG64 (the default), PCG64DXSM, SFC64 or Philox.
    """
    players = sorted(truth.player_skills)
    if len(players) < 2:
        raise ValueError("need at least 2 players to generate games")
    maps = truth.maps
    if not maps:
        raise ValueError("truth defines no maps")

    if truth.schedule == "tournament_tail":
        # steep enough that roughly half the field stays casual
        weights = 1.0 / np.arange(1, len(players) + 1) ** 2.0
        weights /= weights.sum()
    else:
        weights = np.full(len(players), 1.0 / len(players))

    first, second, map_code, draw, duration = _replay(rng.bit_generator, weights,
                                                      len(maps), n)
    skill = np.array([truth.player_skills[p] for p in players], float)
    race = np.array([RACES.index(truth.race_of[p]) for p in players], np.intp)
    effect = np.array([[truth.matchup_effects[(m, pair)] for pair in CANONICAL_PAIRS]
                       for m in maps])
    position, sign = _ORIENTED[race[first], race[second]].T
    # true_eta's operations in its order; a same-race game adds no term
    eta = skill[first] - skill[second]
    eta = np.where(position >= 0, eta + sign * effect[map_code, position], eta)
    winner = draw < sigmoid(eta)

    start = dt.date(2024, 9, 1).toordinal()
    span_days = 180
    # name tables of the players and maps drawn, coded in sorted order
    picked, player_code = np.unique(np.concatenate((first, second)), return_inverse=True)
    mapped, map_column = np.unique(map_code, return_inverse=True)
    coder = _Coder()
    coder.players.update((players[i], k) for k, i in enumerate(picked.tolist()))
    coder.maps.update((maps[j], k) for k, j in enumerate(mapped.tolist()))
    coder.append(player_code[:n], player_code[n:], race[first], race[second], map_column,
                 winner, start + (np.arange(n) * span_days) // max(n, 1), duration + 300)
    return coder.dataset()


_CHUNK_GAMES = 1 << 13  # games decoded from one draw of raw words
_WORDS_PER_GAME = 5  # drawn per game: a game reads 3 to 5 unless a bounded draw rejects
_SPARE_WORDS = 64  # drawn per chunk beyond those, doubled while no game fits
_DURATIONS = 3301  # seconds 300 to 3600
_NO_GAMES = (np.zeros(0, np.intp),) * 5


def _replay(bitgen, weights: np.ndarray, n_maps: int, n: int) -> tuple[np.ndarray, ...]:
    """The draws of ``n`` games, from ``bitgen``'s raw words: first and
    second player, map, the winner's uniform double and duration - 300.

    Per game numpy reads, in order: two doubles (word >> 11, times
    2**-53) for ``choice(size=2, replace=False, p=weights)``, each looked
    up in the normalized cumulative weights, and on a collision one more
    double, looked up with the first pick's weight set to 0; the map, a
    Lemire bounded integer from one 32-bit half; the winner's double; the
    duration, from another half.  A half is the high half of the word
    an earlier half came from, if cached, else the low half of the next
    word, which caches its high half; ``integers(1)`` reads none, and a
    rejected half (leftover below 2**32 mod k) is followed by the next
    one.  The generator ends where the per-game draws would leave it:
    the words used consumed, and the cache flag and cached half set.
    """
    state = bitgen.state
    if "has_uint32" not in state:
        raise TypeError(f"{state['bit_generator']} does not cache 32-bit halves; "
                        "use PCG64, PCG64DXSM, SFC64 or Philox")
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    parts, left, spare = [_NO_GAMES], n, _SPARE_WORDS
    while left:
        games = min(left, _CHUNK_GAMES)
        state = bitgen.state
        words = np.empty(_WORDS_PER_GAME * games + spare, np.uint64)
        # word 0 stands for the word the cached half came from
        words[0] = np.uint64(state["uinteger"]) << np.uint64(32)
        words[1:] = bitgen.random_raw(len(words) - 1)
        draws, end, source = _chunk(words, weights, cdf, n_maps, state["has_uint32"], games)
        bitgen.state = state
        bitgen.random_raw(end // 2 - 1)
        bitgen.state = {**bitgen.state, "has_uint32": end % 2,
                        "uinteger": int(words[source] >> np.uint64(32))}
        if not len(draws[0]):  # the first game needs more words than were drawn
            spare *= 2
        parts.append(draws)
        left -= len(draws[0])
    return tuple(np.concatenate(column) for column in zip(*parts))


def _chunk(words: np.ndarray, weights: np.ndarray, cdf: np.ndarray, n_maps: int,
           cached: int, games: int) -> tuple[tuple[np.ndarray, ...], int, int]:
    """Up to ``games`` games decoded from ``words`` (see :func:`_replay`),
    with the state 2 * position + cache flag after the last of them and
    the word whose high half was cached last.

    A game's words follow from where it starts and whether a half is
    cached there.  So every such state is played at once, giving each
    one's next state, and the games drawn are the path from state
    (1, ``cached``), found by pointer doubling.  Positions grow along the
    path, so its states in increasing order are the games in order.
    """
    size = len(words)
    double = (words >> np.uint64(11)) * 2.0 ** -53
    order = double.argsort()  # searchsorted runs faster on sorted keys
    pick = np.empty(size, np.intp)
    pick[order] = cdf.searchsorted(double[order], side="right")
    clash = np.zeros(size + 1, bool)  # whether a game starting at a word collides
    clash[:-2] = pick[:-1] == pick[1:]
    at = np.arange(size + 1).repeat(2)  # state 2 * position + cache flag
    cache = np.tile([False, True], size + 1)
    source = np.maximum(at - 1, 0)
    pos = at + 2 + clash.repeat(2)
    halves = np.empty(2 * size, np.uint32)  # low then high half of each word
    halves[0::2], halves[1::2] = words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)
    map_code = _bounded(n_maps, halves, pos, cache, source)
    winner_at = np.minimum(pos, size - 1)
    pos += 1
    duration = _bounded(_DURATIONS, halves, pos, cache, source)

    sink = len(at)  # where a game that runs past the words leads
    following = np.append(np.where(pos <= size, 2 * pos + cache, sink), sink)
    on = np.zeros(sink + 1, bool)
    on[2 + cached] = True
    jump, reach = following, 1
    while reach < games:  # ``on``: the path's first ``reach`` states
        on[jump[on]] = True
        jump, reach = jump[jump], 2 * reach
    path = np.flatnonzero(on[:-1])[:games]
    path = path[following[path] != sink]
    if not len(path):
        return _NO_GAMES, 2 + cached, 0

    start = at[path]
    first, second = pick[start], pick[start + 1]
    for f in np.unique(first[clash[start]]).tolist():
        # choice draws the second player again, with the first one's weight 0
        again = np.flatnonzero(clash[start] & (first == f))
        rest = weights.copy()
        rest[f] = 0.0
        rest = np.cumsum(rest)
        rest /= rest[-1]
        second[again] = rest.searchsorted(double[start[again] + 2], side="right")
    return ((first, second, map_code[path], double[winner_at[path]], duration[path]),
            int(following[path[-1]]), int(source[path[-1]]))


def _bounded(k: int, halves: np.ndarray, pos: np.ndarray, cache: np.ndarray,
             source: np.ndarray) -> np.ndarray:
    """numpy's Lemire draw of an integer in [0, ``k``) in every lane at
    once, from the 32-bit ``halves`` of the words; ``pos`` (the next
    word), ``cache`` and ``source`` (the word a cached half is the high
    half of) advance in place.  A lane whose words run out stops with
    ``pos`` past them."""
    out = np.zeros(len(pos), np.intp)
    if k == 1:
        return out  # integers(1) reads no bits
    threshold = (1 << 32) % k  # a leftover below it is rejected
    size = len(halves) // 2
    lanes = slice(None)
    while True:
        held = cache[lanes]
        half = np.where(held, 2 * source[lanes] + 1, 2 * np.minimum(pos[lanes], size - 1))
        m = halves[half].astype(np.uint64) * np.uint64(k)
        out[lanes] = m >> np.uint64(32)
        source[lanes] = half // 2
        pos[lanes] += ~held
        cache[lanes] = ~held
        reject = ((m & np.uint64(0xFFFFFFFF)) < threshold) & (pos[lanes] <= size)
        if not reject.any():
            return out
        lanes = np.arange(len(pos))[lanes][reject]


def truth_error(fit: FitResult, truth: LeagueTruth) -> tuple[float, dict]:
    """Absolute estimation errors against the generating truth.

    Errors are measured only along directions the likelihood
    identifies.  Player skills are identified up to a constant within
    each connected component.  A race with no anchored player leaves a
    second flat direction: +c on that race's players, -c on the matchup
    columns where it is the first race of the canonical pair and +c
    where it is the second.  The signed errors are therefore reduced by
    their least-squares component along all of these directions jointly
    (per-component centring of the players, then the race directions
    centred the same way); when every race has an anchored player this
    is plain per-component centring.  Combinations the fit never
    observed are skipped.  Returns (max abs error, per-symbol table);
    the table keys players by id and matchups by (map, (race1, race2)).
    """
    idx = fit.index
    shared_players = set(idx.player_columns) & set(truth.player_skills)
    shared_matchups = set(idx.matchup_columns) & set(truth.matchup_effects)
    known_players = (set(idx.player_columns) | set(idx.anchored_players)) & set(
        truth.player_skills
    )
    if not known_players and not shared_matchups:
        raise ValueError("fit and truth share no symbols")

    groups = [sorted(c & shared_players) for c in idx.components]
    groups = [g for g in groups if g]
    players = [p for g in groups for p in g]
    no_data = set(fit.no_data_columns)
    matchups = [key for key in sorted(shared_matchups)
                if idx.matchup_columns[key] not in no_data]
    keys = players + matchups
    columns = np.array([idx.player_columns[p] for p in players]
                       + [idx.matchup_columns[k] for k in matchups], np.intp)
    errors = fit.coefficients[columns] - np.array(
        [truth.player_skills[p] for p in players]
        + [truth.matchup_effects[k] for k in matchups], float)
    bounds = np.cumsum([0] + [len(g) for g in groups])

    def centre(v: np.ndarray) -> np.ndarray:
        v = v.copy()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            v[lo:hi] -= np.mean(v[lo:hi])
        return v

    anchored_races = {truth.race_of.get(p) for p in idx.anchored_players}
    free = np.array([r for r, race in enumerate(RACES) if race not in anchored_races])
    code = dict(zip(RACES, range(len(RACES))))
    player_race = np.array([code.get(truth.race_of.get(p), -1) for p in players], np.intp)
    pair_races = np.array([[code[a], code[b]] for _, (a, b) in matchups], np.intp).reshape(-1, 2)
    # each free race's direction, one per column: +1 on its players, -1 on
    # the matchups where it is the pair's first race and +1 where second
    moves = np.concatenate((
        (player_race[:, None] == free).astype(float),
        (pair_races[:, 1:] == free).astype(float) - (pair_races[:, :1] == free)))
    directions = [centre(v) for v in moves.T if v.any()]

    residual = centre(errors)
    if directions:
        basis = np.column_stack(directions)
        coef, *_ = np.linalg.lstsq(basis, residual, rcond=None)
        residual = residual - basis @ coef

    table = {key: abs(float(e)) for key, e in zip(keys, residual)}
    max_error = max(table.values()) if table else 0.0
    return max_error, table
