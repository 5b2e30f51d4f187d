import datetime as dt
from dataclasses import replace

import math
import numpy as np
import pytest

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance.glm import FitOptions
from helpers import simple_league
from oracles import cv_accuracies, per_game, predict_record


def record(p1, r1, p2, r2, winner=1, map_name="M", day=1):
    return MatchRecord(winner, p1, r1, p2, r2, map_name, dt.date(2011, 1, day), 60)


def balanced_pair(n=10):
    recs = [record("A", "Terran", "B", "Terran", winner=i % 2) for i in range(n)]
    d = Dataset.from_records(recs)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    return data, mb.fit_irls(data)


def coin_flip_rows(n=100):
    """All-zero design rows: both players anchored, same race."""
    recs = [record("A", "Terran", "B", "Terran", winner=(i // 5) % 2)
            for i in range(n)]
    d = Dataset.from_records(recs)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=n + 1))
    return data, mb.fit_irls(data)


def swap_all(d):
    return Dataset.from_records(
        MatchRecord(1 - r.winner, r.player2, r.race2, r.player1, r.race1,
                    r.map_name, r.date, r.duration)
        for r in d.records
    )


# -------------------------------------------------------------------- LRT

def test_lrt_zero_fit_gives_unit_p():
    data, fit = balanced_pair()
    assert np.allclose(fit.coefficients, 0.0, atol=1e-8)
    statistic, df, p = mb.lrt_vs_constant(fit, data)
    assert statistic == pytest.approx(0.0, abs=1e-10)
    assert df == 1
    assert p == pytest.approx(1.0, abs=1e-9)


def test_lrt_rejects_on_strong_skill_data():
    _, d = simple_league(60, n_players=10, n=2000, skill_sd=1.5, matchup_sd=0.5)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
    fit = mb.fit_irls(data)
    statistic, df, p = mb.lrt_vs_constant(fit, data)
    assert statistic > 0
    assert df == fit.p_effective
    assert p < 1e-10


def test_lrt_rejects_penalized_fit():
    _, d = simple_league(61, n=200)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    lasso = mb.fit_lasso(data, FitOptions(l1_lambda=0.5))
    with pytest.raises(ValueError, match="penalized"):
        mb.lrt_vs_constant(lasso, data)


# -------------------------------------------------------- Hosmer-Lemeshow

def test_hl_perfect_calibration():
    data, fit = coin_flip_rows(100)  # pi = 0.5 everywhere, 5 wins per 10 rows
    result = mb.hosmer_lemeshow(fit, data, groups=10)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.df == 8
    assert result.p_value == pytest.approx(1.0)
    assert [g["count"] for g in result.group_table] == [10] * 10
    assert all(g["observed"] == 5.0 for g in result.group_table)


def test_hl_bin_sizes_larger_first():
    _, d = simple_league(62, n=205)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=4))
    fit = mb.fit_irls(data)
    result = mb.hosmer_lemeshow(fit, data, groups=10)
    sizes = [g["count"] for g in result.group_table]
    assert sum(sizes) == 205
    assert sizes == sorted(sizes, reverse=True)
    assert max(sizes) - min(sizes) <= 1
    assert result.df == 8
    assert 0.0 <= result.p_value <= 1.0


def test_hl_permutation_invariance_on_distinct_probabilities():
    _, d = simple_league(63, n=400)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=4))
    fit = mb.fit_irls(data)
    # invariance is exact only when no fitted values tie, so drop duplicates
    pi = fit.fitted_probabilities(data)
    _, first = np.unique(pi, return_index=True)
    distinct = data.subset(np.sort(first))
    assert distinct.n >= 50
    base = mb.hosmer_lemeshow(fit, distinct)
    rng = np.random.default_rng(0)
    shuffled = distinct.subset(rng.permutation(distinct.n))
    again = mb.hosmer_lemeshow(fit, shuffled)
    assert again.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert again.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_hl_rejects_fewer_than_three_groups():
    data, fit = coin_flip_rows(20)
    for groups in (2, 1, 0):
        with pytest.raises(ValueError, match="groups must be >= 3"):
            mb.hosmer_lemeshow(fit, data, groups=groups)


def test_hl_requires_enough_rows_and_flags_degenerate_bins():
    data, fit = coin_flip_rows(8)
    with pytest.raises(ValueError, match="at least 10"):
        mb.hosmer_lemeshow(fit, data, groups=10)

    _, d = simple_league(64, n=100)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=4))
    fit = mb.fit_irls(data)
    pinned = replace(fit, coefficients=fit.coefficients * 1e4, eta_cap=1e9)
    with pytest.raises(ValueError, match="degenerate"):
        mb.hosmer_lemeshow(pinned, data)


# -------------------------------------------------------------- dispersion

def test_dispersion_even_money_identity():
    data, fit = coin_flip_rows(100)
    est = mb.pearson_dispersion(fit, data)
    # (y - 0.5)^2 / 0.25 = 1 for every row, and no columns were estimated
    assert est.phi == pytest.approx(100 / (100 - 0), rel=1e-12)
    assert est.p_effective == 0
    assert est.n == 100


def test_dispersion_near_one_when_well_specified():
    _, d = simple_league(65, n=4000, n_players=18)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
    fit = mb.fit_irls(data)
    est = mb.pearson_dispersion(fit, data)
    assert 0.85 <= est.phi <= 1.15


def test_dispersion_requires_residual_dof_and_unpenalized():
    recs = [record("A", "Terran", "B", "Zerg", winner=i % 2) for i in range(2)]
    d = Dataset.from_records(recs)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    fit = mb.fit_irls(data)
    assert fit.p_effective >= data.n
    with pytest.raises(ValueError, match="exceed"):
        mb.pearson_dispersion(fit, data)
    _, d2 = simple_league(66, n=100)
    idx = mb.build_parameter_index(d2, min_games=1, ensure_identifiable=False)
    data2 = mb.build_design(d2, idx)
    lasso = mb.fit_lasso(data2, FitOptions(l1_lambda=0.3))
    with pytest.raises(ValueError, match="unpenalized"):
        mb.pearson_dispersion(lasso, data2)


# -------------------------------------------------------------- residuals

def test_residual_values():
    data, fit = coin_flip_rows(20)
    pairs = mb.residuals_vs_fitted(fit, data)
    assert len(pairs) == 20
    for (pi, r), y in zip(pairs, data.response):
        assert pi == 0.5
        assert r == pytest.approx(1.0 if y == 1 else -1.0, abs=1e-12)

    # y=0 against fitted probability 0.8 gives residual -2
    recs = [record("A", "Terran", "B", "Terran", winner=0)] * 3
    recs.append(record("filler", "Zerg", "A", "Terran", winner=0, day=9))
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=2)  # filler anchored, A and B free
    data = mb.build_design(d, idx)
    fit = mb.fit_irls(data)
    beta = np.zeros(idx.p)
    beta[idx.player_columns["A"]] = math.log(4.0)  # sigmoid = 0.8
    pairs = mb.residuals_vs_fitted(replace(fit, coefficients=beta), data)
    assert pairs[0][0] == pytest.approx(0.8, abs=1e-12)
    assert pairs[0][1] == pytest.approx(-2.0, abs=1e-9)


def test_residuals_error_on_saturated_probability():
    _, d = simple_league(67, n=60)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=4))
    fit = mb.fit_irls(data)
    pinned = replace(fit, coefficients=fit.coefficients * 1e4, eta_cap=1e9)
    with pytest.raises(ValueError, match="residual undefined"):
        mb.residuals_vs_fitted(pinned, data)


def test_residuals_score_orthogonality_at_optimum():
    _, d = simple_league(68, n=800)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
    fit = mb.fit_irls(data, FitOptions(tolerance=1e-12))
    pi = fit.fitted_probabilities(data)
    X = per_game(data)
    g = X.T @ (data.response - pi)
    observed = np.bincount(X.indices, minlength=data.p) > 0
    assert np.max(np.abs(g[observed])) < 1e-6


# ---------------------------------------------------------------- k-fold CV

def test_cv_reproducible_and_sane():
    _, d = simple_league(69, n=600, n_players=12)
    a = mb.k_fold_cv(d, k=5, opts=FitOptions(), min_games=1, seed=42)
    b = mb.k_fold_cv(d, k=5, opts=FitOptions(), min_games=1, seed=42)
    assert a.per_fold == b.per_fold
    assert a.k == 5 and a.seed == 42
    for train, test in a.per_fold:
        assert 0.0 <= train <= 1.0
        assert 0.0 <= test <= 1.0
    trains = np.array([t for t, _ in a.per_fold])
    tests = np.array([t for _, t in a.per_fold])
    assert a.train_mean == pytest.approx(trains.mean())
    assert a.train_sd == pytest.approx(trains.std(ddof=1))
    assert a.test_mean == pytest.approx(tests.mean())
    assert a.test_sd == pytest.approx(tests.std(ddof=1))
    c = mb.k_fold_cv(d, k=5, opts=FitOptions(), min_games=1, seed=43)
    assert c.per_fold != a.per_fold


def test_cv_flip_invariance():
    _, d = simple_league(70, n=600, n_players=12)
    a = mb.k_fold_cv(d, k=5, opts=FitOptions(), min_games=1, seed=9)
    b = mb.k_fold_cv(swap_all(d), k=5, opts=FitOptions(), min_games=1, seed=9)
    for (ta, va), (tb, vb) in zip(a.per_fold, b.per_fold):
        assert ta == pytest.approx(tb, abs=1e-12)
        assert va == pytest.approx(vb, abs=1e-12)


def test_cv_learns_on_strong_skill_data():
    # every pair of skills is at least 4 apart, so games are near-certain
    from matchbalance.simulate import LeagueTruth
    players = {f"p{i}": 4.0 * i for i in range(6)}
    truth = LeagueTruth(
        player_skills=players,
        matchup_effects={("M", pair): 0.0 for pair in mb.CANONICAL_PAIRS},
        race_of={p: "Terran" for p in players},
    )
    d = mb.generate(truth, 3000, np.random.default_rng(71))
    assert min(mb.games_per_player(d).values()) >= 30
    summary = mb.k_fold_cv(d, k=5, opts=FitOptions(), min_games=6, seed=1)
    assert summary.test_mean > 0.9


def test_cv_matches_per_record_oracle_with_unseen_symbols():
    # each extra record is the only game of its newcomers or of its map, so
    # whichever fold holds it tests players or a map its training split lacks
    _, base = simple_league(74, n=600, n_players=12)
    known = sorted(base.players)
    race = {r.player1: r.race1 for r in base.records}
    # same-race pairing of two unknown players: a 50-50 tie that predicts
    # player1, here the loser, so breaking it the other way changes a count
    tie = record("stranger_1", "Protoss", "stranger_2", "Protoss", winner=0)
    extra = [
        record("rookie_a", "Zerg", known[0], race[known[0]], winner=0),
        record(known[1], race[known[1]], "rookie_b", "Protoss", winner=1),
        record("rookie_c", "Terran", "rookie_d", "Zerg", winner=1),
        record(known[2], "Terran", known[3], "Zerg", winner=1, map_name="new_map"),
        record(known[4], "Zerg", known[5], "Protoss", winner=0, map_name="new_map_2"),
        tie,
    ]
    d = Dataset.from_records(list(base.records) + extra)
    opts = FitOptions()
    summary = mb.k_fold_cv(d, k=5, opts=opts, min_games=1, seed=3)
    assert summary.per_fold == cv_accuracies(d, 5, opts, 1, 3)
    base_fit = mb.fit_irls(mb.build_design(base, mb.build_parameter_index(base, 1)))
    assert predict_record(base_fit, tie) == 1


def test_cv_validation_errors():
    _, d = simple_league(72, n=30)
    with pytest.raises(ValueError, match="fold count"):
        mb.k_fold_cv(d, k=1, opts=FitOptions(), min_games=1, seed=0)
    tiny = Dataset.from_records(d.records[:3])
    with pytest.raises(ValueError, match="at least"):
        mb.k_fold_cv(tiny, k=10, opts=FitOptions(), min_games=1, seed=0)


# -------------------------------------------------------------- zero overlap

def test_zero_overlap_extremes_and_errors():
    _, d = simple_league(73, n=400, n_players=10)
    anchored = mb.build_parameter_index(d, min_games=8).anchored_players
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    assert anchored

    all_zero = mb.fit_lasso(data, FitOptions(l1_lambda=1e6))
    assert mb.zero_overlap(set(anchored), all_zero) == 1.0

    none_zero = replace(all_zero, coefficients=np.ones(idx.p))
    assert mb.zero_overlap(set(anchored), none_zero) == 0.0

    with pytest.raises(ValueError, match="empty"):
        mb.zero_overlap(set(), all_zero)

    anchored_fit = mb.fit_irls(mb.build_design(d, mb.build_parameter_index(d, min_games=8)))
    with pytest.raises(ValueError, match="no column"):
        mb.zero_overlap(set(anchored), anchored_fit)
