"""Shared synthetic-league constructions used across the test modules."""
import datetime as dt
import itertools

import numpy as np

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord


def simple_league(seed, n_players=15, n_maps=2, n=1200, skill_sd=1.0, matchup_sd=1.0):
    rng = np.random.default_rng(seed)
    truth = mb.random_league(n_players, n_maps, rng, skill_sd=skill_sd,
                             matchup_sd=matchup_sd)
    return truth, mb.generate(truth, n, rng)


def pinned_small_league(seed):
    """Small random league plus casuals that give it a unique interior optimum.

    Each pro wins one game and loses one against a casual of its own
    race, and for every map and canonical race pair two casuals win one
    game and lose one against each other.  Every casual has its own name
    and plays exactly these 2 games, so min_games=3 anchors all of them.
    Then the casuals' games are the rows of each pro's column and each
    matchup column, every one observed with both outcomes.  A separating
    direction vanishes on every such row (Albert & Anderson 1984), and
    these rows span every column, so none separates and the
    maximum-likelihood point is unique and finite.
    """
    rng = np.random.default_rng(seed)
    n_players = int(rng.integers(4, 9))
    n_maps = int(rng.integers(1, 4))
    n = int(rng.integers(120, 281))
    truth = mb.random_league(n_players, n_maps, rng, skill_sd=0.8, matchup_sd=0.5)
    recs = list(mb.generate(truth, n, rng).records)
    casuals = (f"casual_{k:03d}" for k in itertools.count())
    pairs = [(pro, truth.race_of[pro], next(casuals), truth.race_of[pro], truth.maps[0])
             for pro in sorted(truth.player_skills)]
    pairs += [(next(casuals), race1, next(casuals), race2, m)
              for m in truth.maps for race1, race2 in mb.CANONICAL_PAIRS]
    for player1, race1, player2, race2, m in pairs:
        for outcome in (1, 0):
            recs.append(MatchRecord(outcome, player1, race1, player2, race2, m,
                                    dt.date(2025, 3, 1), 900))
    return Dataset.from_records(recs)


def casual_base_league(seed, n_pro_games, n_pros, casuals_per_race, casual_games=3,
                       n_maps=3, skill_sd=1.0, matchup_sd=1.0):
    """League with a pool of zero-skill casuals so anchoring them is exact.

    The casuals (``casual_games`` appearances each) fall below the
    default min_games threshold and pin every race-level gauge
    direction; their true skill is zero, so the anchored model is
    correctly specified and all remaining coefficients are identified.
    Returns (truth, dataset).
    """
    rng = np.random.default_rng(seed)
    truth = mb.random_league(n_pros, n_maps, rng, skill_sd=skill_sd,
                             matchup_sd=matchup_sd)
    d = mb.generate(truth, n_pro_games, rng)
    recs = list(d.records)
    pros = sorted(truth.player_skills)
    maps = truth.maps
    for race in mb.RACES:
        for c in range(casuals_per_race):
            name = f"casual_{race.lower()}_{c:04d}"
            truth.player_skills[name] = 0.0
            truth.race_of[name] = race
            for _ in range(casual_games):
                opp = pros[int(rng.integers(len(pros)))]
                m = maps[int(rng.integers(len(maps)))]
                eta = mb.true_eta(truth, name, opp, m)
                winner = int(rng.random() < mb.sigmoid(eta))
                recs.append(MatchRecord(winner, name, race, opp, truth.race_of[opp],
                                        m, dt.date(2025, 1, 1), 600))
    return truth, Dataset.from_records(recs)


def noise_league(seed, n_real_games=900, n_real=12, n_noise=30, n_maps=2):
    """Solid core league plus one-game noise players (skill 0)."""
    rng = np.random.default_rng(seed)
    truth = mb.random_league(n_real, n_maps, rng, skill_sd=1.0, matchup_sd=0.5)
    d = mb.generate(truth, n_real_games, rng)
    recs = list(d.records)
    pros = sorted(truth.player_skills)
    maps = truth.maps
    for i in range(n_noise):
        name = f"noise_{i:02d}"
        race = mb.RACES[i % 3]
        opp = pros[int(rng.integers(len(pros)))]
        m = maps[int(rng.integers(len(maps)))]
        truth.player_skills[name] = 0.0
        truth.race_of[name] = race
        eta = mb.true_eta(truth, name, opp, m)
        winner = int(rng.random() < mb.sigmoid(eta))
        recs.append(MatchRecord(winner, name, race, opp, truth.race_of[opp],
                                m, dt.date(2025, 2, 1), 700))
    return truth, Dataset.from_records(recs)


def table_counts_dataset():
    """Dataset engineered to reproduce the reference descriptive tables.

    Ordered cross-race win counts: Terran over Protoss 121 of 233,
    Terran over Zerg 132 of 265, Protoss over Zerg 67 of 131; same-race
    games: 45 Protoss, 134 Terran, 44 Zerg mirrors (852 games total).
    September 2010 contains exactly 16 Protoss, 17 Terran and 10 Zerg
    distinct players.
    """
    records = []
    serial = [0]

    def add(winner_race, loser_race, w_name, l_name, date):
        serial[0] += 1
        records.append(MatchRecord(1, w_name, winner_race, l_name, loser_race,
                                   "Crossfire Station", date, 300 + serial[0]))

    sep = dt.date(2010, 9, 15)
    oct_ = dt.date(2010, 10, 15)

    # September: 16 distinct Protoss, 17 Terran, 10 Zerg players
    for i in range(16):  # 16 Terran-over-Protoss games
        add("Terran", "Protoss", f"T{i:02d}", f"P{i:02d}", sep)
    add("Terran", "Zerg", "T16", "Z00", sep)
    add("Zerg", "Terran", "Z09", "T00", sep)
    for i in range(4):  # Zerg mirrors covering Z01..Z08
        add("Zerg", "Zerg", f"Z{2*i+1:02d}", f"Z{2*i+2:02d}", sep)

    # Remaining counts, filled in October with a fixed pool
    def fill(winner_race, loser_race, count):
        names = {"Terran": ("T00", "T01"), "Protoss": ("P00", "P01"),
                 "Zerg": ("Z00", "Z01")}
        for k in range(count):
            w = names[winner_race][0]
            l = names[loser_race][0 if winner_race != loser_race else 1]
            add(winner_race, loser_race, w, l, oct_)

    fill("Terran", "Protoss", 121 - 16)
    fill("Protoss", "Terran", 112)
    fill("Terran", "Zerg", 132 - 1)
    fill("Zerg", "Terran", 133 - 1)
    fill("Protoss", "Zerg", 67)
    fill("Zerg", "Protoss", 64)
    fill("Protoss", "Protoss", 45)
    fill("Terran", "Terran", 134)
    fill("Zerg", "Zerg", 44 - 4)
    return Dataset.from_records(records)
