import numpy as np
import pytest

import matchbalance as mb
from matchbalance.simulate import LeagueTruth
from helpers import casual_base_league
from oracles import encode_row


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


def test_generator_encoder_coherence_bit_identical():
    rng = np.random.default_rng(4)
    truth = mb.random_league(9, 3, rng)
    d = mb.generate(truth, 300, rng)
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
