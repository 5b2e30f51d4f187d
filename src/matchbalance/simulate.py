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

from .data import RACES, Dataset
from .design import CANONICAL_PAIRS, canonical_orientation
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
    skills = {p: float(rng.normal(0.0, skill_sd)) if skill_sd > 0 else 0.0
              for p in players}
    effects = {
        (m, pair): float(rng.normal(0.0, matchup_sd)) if matchup_sd > 0 else 0.0
        for m in maps
        for pair in CANONICAL_PAIRS
    }
    races = {p: RACES[int(rng.integers(len(RACES)))] for p in players}
    return LeagueTruth(skills, effects, races, schedule=schedule)


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

    start = dt.date(2024, 9, 1).toordinal()
    span_days = 180
    rows = []
    for i in range(n):
        i1, i2 = rng.choice(len(players), size=2, replace=False, p=weights)
        p1, p2 = players[i1], players[i2]
        map_name = maps[int(rng.integers(len(maps)))]
        eta = true_eta(truth, p1, p2, map_name)
        winner = int(rng.random() < sigmoid(eta))
        date = start + (i * span_days) // max(n, 1)
        rows.append((winner, p1, truth.race_of[p1], p2, truth.race_of[p2], map_name, date,
                     int(rng.integers(300, 3601))))
    return Dataset._from_rows(rows)


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
    errors = np.array(
        [fit.player_estimate(p) - truth.player_skills[p] for p in players]
        + [fit.matchup_estimate(*k) - truth.matchup_effects[k] for k in matchups]
    )
    bounds = np.cumsum([0] + [len(g) for g in groups])

    def centre(v: np.ndarray) -> np.ndarray:
        v = v.copy()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            v[lo:hi] -= np.mean(v[lo:hi])
        return v

    anchored_races = {truth.race_of.get(p) for p in idx.anchored_players}
    directions = []
    for race in RACES:
        if race in anchored_races:
            continue
        v = np.array(
            [1.0 if truth.race_of.get(p) == race else 0.0 for p in players]
            + [-1.0 if pair[0] == race else 1.0 if pair[1] == race else 0.0
               for _, pair in matchups]
        )
        if v.any():
            directions.append(centre(v))

    residual = centre(errors)
    if directions:
        basis = np.column_stack(directions)
        coef, *_ = np.linalg.lstsq(basis, residual, rcond=None)
        residual = residual - basis @ coef

    table = {key: abs(float(e)) for key, e in zip(keys, residual)}
    max_error = max(table.values()) if table else 0.0
    return max_error, table
