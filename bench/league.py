"""Seeded synthetic leagues written as match CSV text.

The generator is the benchmark's own (numpy only), so a change to
``matchbalance.simulate`` never changes the benchmark's inputs.  Player
participation is heavy-tailed: the player of rank r is drawn with
weight r**-s, which leaves a casual tail in every race so that threshold
anchoring identifies the model.  A game outside the opponent graph's main
component (casual players who met only each other) gets a new second
player, so every league is connected and its generation cost hardly
depends on the seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

RACES = ("Terran", "Protoss", "Zerg")
HEADER = "winner,player1,race1,player2,race2,map,date,duration_seconds"
START = dt.date(2024, 1, 1)


@dataclass(frozen=True)
class League:
    """One generated league: its CSV text plus the arrays it was written from."""

    csv: str
    p1: np.ndarray
    p2: np.ndarray
    race: np.ndarray
    n_players: int

    @property
    def games(self) -> int:
        return self.p1.size

    def player_name(self, i: int) -> str:
        return f"p{i:05d}"


def _labels(p1: np.ndarray, p2: np.ndarray, players: int) -> np.ndarray:
    """Opponent-graph component label of every player."""
    graph = coo_matrix((np.ones(p1.size), (p1, p2)), shape=(players, players))
    return connected_components(graph, directed=False)[1]


def _stray_games(p1: np.ndarray, p2: np.ndarray, players: int) -> np.ndarray:
    """Mask of the games outside the component that holds the most games."""
    labels = _labels(p1, p2, players)[p1]
    return labels != np.bincount(labels).argmax()


def generate(rng: np.random.Generator, players: int, maps: int, games: int,
             s: float) -> League:
    """Draw a league of ``games`` games among ``players`` players on ``maps`` maps."""
    weights = np.arange(1, players + 1, dtype=float) ** -s
    weights /= weights.sum()
    skill = rng.normal(0.0, 1.0, players)
    race = rng.integers(0, 3, players)
    edge = rng.normal(0.0, 0.5, (maps, 3, 3))
    edge = edge - edge.transpose(0, 2, 1)  # edge[m, a, b] = -edge[m, b, a]

    p1 = rng.choice(players, games, p=weights)
    p2 = rng.choice(players, games, p=weights)
    redraw = (p1 == p2) | _stray_games(p1, p2, players)
    while redraw.any():
        p2[redraw] = rng.choice(players, int(redraw.sum()), p=weights)
        redraw = (p1 == p2) | _stray_games(p1, p2, players)
    m = rng.integers(0, maps, games)
    eta = skill[p1] - skill[p2] + edge[m, race[p1], race[p2]]
    winner = (rng.random(games) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    day = np.arange(games) * 180 // games
    duration = rng.integers(300, 3601, games)

    names = [f"p{i:05d}" for i in range(players)]
    map_names = [f"map_{j:02d}" for j in range(maps)]
    dates = [(START + dt.timedelta(days=int(d))).isoformat() for d in range(181)]
    lines = [HEADER]
    lines.extend(
        f"{w},{names[a]},{RACES[race[a]]},{names[b]},{RACES[race[b]]},"
        f"{map_names[k]},{dates[d]},{t}"
        for w, a, b, k, d, t in zip(winner.tolist(), p1.tolist(), p2.tolist(),
                                    m.tolist(), day.tolist(), duration.tolist())
    )
    return League("\n".join(lines) + "\n", p1, p2, race, players)


MAX_DRAWS = 20


class NotIdentified(RuntimeError):
    """A generated league the anchored model could not identify."""


def identified(key: list[int], players: int, maps: int, games: int, s: float,
               min_games: int) -> League:
    """The first league drawn from seeds ``key + [attempt]`` that passes the guard.

    A draw with no anchored player in some race is replaced by the next
    attempt, so the same key always gives the same league.
    """
    for attempt in range(MAX_DRAWS):
        lg = generate(np.random.default_rng([*key, attempt]), players, maps, games, s)
        try:
            check_identified(lg, min_games)
        except NotIdentified:
            continue
        return lg
    raise NotIdentified(f"no identified league in {MAX_DRAWS} draws for seeds {key}")


def check_identified(league: League, min_games: int) -> None:
    """Raise unless the opponent graph is connected and every race has anchors.

    Computed from the generated arrays, independently of the program under test.
    """
    counts = np.bincount(np.concatenate([league.p1, league.p2]),
                         minlength=league.n_players)
    seen = np.flatnonzero(counts)
    labels = _labels(league.p1, league.p2, league.n_players)
    if np.unique(labels[seen]).size != 1:
        raise NotIdentified("generated league has more than one opponent-graph component")
    anchored = seen[counts[seen] < min_games]
    missing = set(range(3)) - set(league.race[anchored].tolist())
    if missing:
        raise NotIdentified("generated league has no anchored player in race(s) "
                           + ", ".join(RACES[r] for r in sorted(missing)))
