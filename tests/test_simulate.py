"""Synthetic leagues: their shape, their truth, that ``generate`` draws
its pairs of players from the law of ``choice(size=2, replace=False,
p=weights)``, and that ``random_league`` draws every bit the per-symbol
loop in ``oracles`` draws, leaving the generator in the same state.
"""
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import matchbalance as mb
from matchbalance.simulate import SCHEDULES, LeagueTruth
from helpers import casual_base_league
from oracles import encode_row, random_league_loop

# fixed examples, so every run checks the same cases
replay_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
# fixed before the law test was first run
PAIR_LAW_LEVEL = 1e-3


def test_generate_basic_shape():
    rng = np.random.default_rng(0)
    truth = mb.random_league(8, 2, rng)
    d = mb.generate(truth, 250, rng)
    assert len(d) == 250
    assert d.players <= set(truth.player_skills)
    assert d.maps <= set(truth.maps)
    dates = [r.date for r in d.records]
    assert dates == sorted(dates)
    assert all(r.duration > 0 for r in d.records)
    assert all(r.race1 == truth.race_of[r.player1] for r in d.records)


def test_generate_empty_and_errors():
    rng = np.random.default_rng(1)
    truth = mb.random_league(5, 2, rng)
    assert len(mb.generate(truth, 0, rng)) == 0
    lonely = mb.random_league(1, 2, rng)
    with pytest.raises(ValueError, match="2 players"):
        mb.generate(lonely, 10, rng)


def test_generate_null_truth_is_fair():
    rng = np.random.default_rng(2)
    truth = mb.random_league(10, 2, rng, skill_sd=0.0, matchup_sd=0.0)
    d = mb.generate(truth, 10000, rng)
    frac = np.mean([r.winner for r in d.records])
    assert 0.48 <= frac <= 0.52


def test_generate_large_gap_dominates():
    truth = LeagueTruth(
        player_skills={"strong": 4.0, "weak": 0.0},
        matchup_effects={("M", pair): 0.0 for pair in mb.CANONICAL_PAIRS},
        race_of={"strong": "Terran", "weak": "Terran"},
    )
    rng = np.random.default_rng(3)
    d = mb.generate(truth, 1000, rng)
    wins = np.mean([
        r.winner if r.player1 == "strong" else 1 - r.winner for r in d.records
    ])
    assert 0.96 <= wins <= 0.99  # sigmoid(4) is about 0.982


@pytest.mark.parametrize("seed,n_players,n_maps,n,schedule", [
    (4, 9, 3, 300, "uniform"),
    (11, 2, 1, 200, "uniform"),
    (12, 25, 5, 600, "tournament_tail"),
    (13, 60, 2, 900, "tournament_tail"),
])
def test_generator_encoder_coherence_bit_identical(seed, n_players, n_maps, n, schedule):
    rng = np.random.default_rng(seed)
    truth = mb.random_league(n_players, n_maps, rng, schedule=schedule)
    d = mb.generate(truth, n, rng)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    beta = np.zeros(idx.p)
    for player, col in idx.player_columns.items():
        beta[col] = truth.player_skills[player]
    for key, col in idx.matchup_columns.items():
        beta[col] = truth.matchup_effects[key]
    for r in d.records:
        row = encode_row(r, idx)
        eta = 0.0
        for col, sign in row.items():
            eta += sign * beta[col]
        assert eta == mb.true_eta(truth, r.player1, r.player2, r.map_name)


@pytest.mark.parametrize("n_players", [2, 4])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64,
                                           np.random.Philox])
def test_generate_draws_pairs_from_the_law_of_choice_without_replacement(bit_generator,
                                                                          schedule,
                                                                          n_players):
    # the ordered pair (i, j) has probability w_i * w_j / (1 - w_i); with 2
    # players under the tournament tail most games redraw player2 at least once
    n, k = 200_000, n_players
    truth = mb.random_league(k, 1, np.random.default_rng(14), schedule=schedule)
    d = mb.generate(truth, n, np.random.Generator(bit_generator(15)))
    again = mb.generate(truth, n, np.random.Generator(bit_generator(15)))
    for name in ("_players", "_maps", "_races", "_rows", "_dates", "_durations"):
        assert np.array_equal(getattr(d, name), getattr(again, name))
    assert d._players == tuple(sorted(truth.player_skills))
    first, second = d._rows[:, 0], d._rows[:, 1]
    assert not np.any(first == second)
    weights = 1.0 / np.arange(1, k + 1) ** (2.0 if schedule == "tournament_tail" else 0.0)
    weights /= weights.sum()
    law = weights[:, None] * weights / (1.0 - weights[:, None])
    off = ~np.eye(k, dtype=bool)
    counts = np.bincount(k * first + second, minlength=k * k).reshape(k, k)
    assert scipy.stats.chisquare(counts[off], n * law[off]).pvalue > PAIR_LAW_LEVEL


@replay_settings
@given(st.integers(0, 260), st.integers(0, 5), st.sampled_from((0.0, 0.5, 1.0)),
       st.sampled_from((0.0, 2.0)), st.sampled_from(SCHEDULES), seeds)
def test_random_league_draws_as_the_per_symbol_loop(n_players, n_maps, skill_sd,
                                                    matchup_sd, schedule, seed):
    rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    kwargs = dict(skill_sd=skill_sd, matchup_sd=matchup_sd, schedule=schedule)
    truth = mb.random_league(n_players, n_maps, rng, **kwargs)
    expected = random_league_loop(n_players, n_maps, loop, **kwargs)
    assert truth == expected
    assert all(type(v) is float for v in truth.player_skills.values())
    assert all(type(v) is float for v in truth.matchup_effects.values())
    assert rng.bit_generator.state == loop.bit_generator.state


def test_truth_validation():
    with pytest.raises(ValueError, match="missing"):
        LeagueTruth(
            player_skills={"a": 0.0, "b": 0.0},
            matchup_effects={("M", ("Terran", "Protoss")): 0.1},
            race_of={"a": "Terran", "b": "Zerg"},
        )
    with pytest.raises(ValueError, match="schedule"):
        mb.random_league(4, 1, np.random.default_rng(0), schedule="round_robin")
    for sd in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="skill_sd"):
            mb.random_league(4, 1, np.random.default_rng(0), skill_sd=sd)
        with pytest.raises(ValueError, match="matchup_sd"):
            mb.random_league(4, 1, np.random.default_rng(0), matchup_sd=sd)


def test_tournament_tail_schedule_is_heavy_tailed():
    rng = np.random.default_rng(5)
    truth = mb.random_league(30, 2, rng, schedule="tournament_tail")
    d = mb.generate(truth, 2000, rng)
    counts = sorted(mb.games_per_player(d).values(), reverse=True)
    assert counts[0] > 4 * counts[len(counts) // 2]


def test_truth_error_recovers_generating_parameters():
    truth, d = casual_base_league(900, n_pro_games=20000, n_pros=20,
                                  casuals_per_race=320)
    idx = mb.build_parameter_index(d, min_games=6)
    fit = mb.fit_irls(mb.build_design(d, idx))
    err, table = mb.truth_error(fit, truth)
    assert err < 0.35
    assert set(idx.player_columns) <= set(table)


def test_truth_error_decreases_with_more_data():
    errors = {}
    for n in (2000, 20000):
        truth, d = casual_base_league(901, n_pro_games=n, n_pros=20,
                                      casuals_per_race=n // 62)
        idx = mb.build_parameter_index(d, min_games=6)
        fit = mb.fit_irls(mb.build_design(d, idx))
        errors[n], _ = mb.truth_error(fit, truth)
    assert errors[20000] < errors[2000]


def test_truth_error_alignment_and_errors():
    rng = np.random.default_rng(6)
    truth = mb.random_league(6, 1, rng, skill_sd=0.0, matchup_sd=0.0)
    d = mb.generate(truth, 60, rng)
    idx = mb.build_parameter_index(d, min_games=1)
    fit = mb.fit_irls(mb.build_design(d, idx))

    # adding a constant to every player is removed by the alignment
    shifted = fit.coefficients.copy()
    for col in idx.player_columns.values():
        shifted[col] += 5.0
    from dataclasses import replace
    err1, _ = mb.truth_error(fit, truth)
    err2, _ = mb.truth_error(replace(fit, coefficients=shifted), truth)
    assert err1 == pytest.approx(err2, abs=1e-9)

    stranger_truth = mb.random_league(4, 1, np.random.default_rng(7))
    stranger_truth.player_skills = {
        f"x_{k}": v for k, v in stranger_truth.player_skills.items()
    }
    stranger_truth.matchup_effects = {
        ("other_map", pair): 0.0 for pair in mb.CANONICAL_PAIRS
    }
    stranger_truth.race_of = {f"x_{i}": "Terran" for i in range(4)}
    with pytest.raises(ValueError, match="share no symbols"):
        mb.truth_error(fit, stranger_truth)


def test_truth_error_ignores_unidentified_race_directions():
    rng = np.random.default_rng(10)
    truth = mb.random_league(9, 2, rng)
    d = mb.generate(truth, 400, rng)
    idx = mb.build_parameter_index(d, min_games=1)
    data = mb.build_design(d, idx)
    fit = mb.fit_irls(data)
    (anchor,) = idx.anchored_players
    free_races = [r for r in mb.RACES if r != truth.race_of[anchor]]
    err, table = mb.truth_error(fit, truth)

    from dataclasses import replace
    for race in free_races:
        moved = fit.coefficients.copy()
        for player, col in idx.player_columns.items():
            if truth.race_of[player] == race:
                moved[col] += 2.5
        for (_, pair), col in idx.matchup_columns.items():
            moved[col] += -2.5 if pair[0] == race else 2.5 if pair[1] == race else 0.0
        # a flat direction of the likelihood, yet it moves the raw matchups
        assert mb.log_likelihood(moved, data) == pytest.approx(
            fit.log_likelihood, abs=1e-9)
        moved_err, moved_table = mb.truth_error(
            replace(fit, coefficients=moved), truth)
        assert moved_err == pytest.approx(err, abs=1e-9)
        assert moved_table == pytest.approx(table, abs=1e-9)


def test_truth_error_tiny_null_league_is_finite():
    rng = np.random.default_rng(8)
    truth = mb.random_league(4, 1, rng, skill_sd=0.0, matchup_sd=0.0)
    d = mb.generate(truth, 12, rng)
    idx = mb.build_parameter_index(d, min_games=1)
    fit = mb.fit_irls(mb.build_design(d, idx))
    err, table = mb.truth_error(fit, truth)
    assert np.isfinite(err)
    assert all(np.isfinite(v) for v in table.values())
