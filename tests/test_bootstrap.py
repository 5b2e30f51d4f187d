from dataclasses import replace

import numpy as np
import pytest

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance.glm import FitOptions
from helpers import casual_base_league, simple_league


def unique_records_league(seed, n=600):
    """League whose records are pairwise distinct (serial durations)."""
    _, d = simple_league(seed, n=n)
    records = [replace(r, duration=300 + i) for i, r in enumerate(d.records)]
    return Dataset.from_records(records)


# ---------------------------------------------------------------- resample

def test_resample_size_and_membership():
    d = unique_records_league(80)
    s = mb.resample(d, np.random.default_rng(0))
    assert len(s) == len(d)
    assert set(s.records) <= set(d.records)
    assert s.players == {p for r in s.records for p in (r.player1, r.player2)}


def test_resample_deterministic_given_seed():
    d = unique_records_league(81)
    a = mb.resample(d, np.random.default_rng(7))
    b = mb.resample(d, np.random.default_rng(7))
    assert a == b
    c = mb.resample(d, np.random.default_rng(8))
    assert c != a


def test_resample_distinct_fraction_near_632():
    d = unique_records_league(82)
    fractions = [
        len(set(mb.resample(d, np.random.default_rng(b)).records)) / len(d)
        for b in range(200)
    ]
    assert 0.61 <= np.mean(fractions) <= 0.65


def test_resample_empty_errors():
    with pytest.raises(ValueError):
        mb.resample(Dataset.from_records([]), np.random.default_rng(0))


# -------------------------------------------------------- aggregate_balance

def test_aggregate_balance_arithmetic():
    _, d = simple_league(83, n_maps=2, n=300)
    idx = mb.build_parameter_index(d, min_games=4)
    fit = mb.fit_irls(mb.build_design(d, idx))
    beta = fit.coefficients.copy()
    maps = idx.maps
    beta[idx.matchup_column(maps[0], ("Terran", "Protoss"))] = 0.2
    beta[idx.matchup_column(maps[1], ("Terran", "Protoss"))] = 0.4
    stat = mb.aggregate_balance(replace(fit, coefficients=beta))
    assert stat.m == 2
    assert stat.per_pair[("Terran", "Protoss")] == pytest.approx(0.3)
    assert list(stat.per_pair) == list(mb.CANONICAL_PAIRS)

    zeros = replace(fit, coefficients=np.zeros(idx.p))
    assert all(v == 0.0 for v in mb.aggregate_balance(zeros).per_pair.values())

    # linear in the coefficient vector
    doubled = mb.aggregate_balance(replace(fit, coefficients=2 * fit.coefficients))
    base = mb.aggregate_balance(fit)
    for pair in mb.CANONICAL_PAIRS:
        assert doubled.per_pair[pair] == pytest.approx(2 * base.per_pair[pair])


# ---------------------------------------------------------------- bootstrap

def test_bootstrap_balance_single_draw():
    _, d = casual_base_league(84, n_pro_games=400, n_pros=8, casuals_per_race=6)
    summary = mb.bootstrap_balance(d, B=1, min_games=6, seed=3)
    assert summary.B == 1
    assert summary.failed == 0
    assert len(summary.draws) == 1
    assert summary.sd is None
    for pair in mb.CANONICAL_PAIRS:
        assert summary.mean[pair] == summary.draws[0][pair]
        assert summary.tail_prob[pair] in (0.0, 1.0)


def test_bootstrap_balance_deterministic_and_bounded():
    _, d = casual_base_league(85, n_pro_games=500, n_pros=8, casuals_per_race=6)
    a = mb.bootstrap_balance(d, B=25, min_games=6, seed=11)
    b = mb.bootstrap_balance(d, B=25, min_games=6, seed=11)
    assert a.draws == b.draws
    assert a.mean == b.mean and a.sd == b.sd and a.tail_prob == b.tail_prob
    for pair in mb.CANONICAL_PAIRS:
        assert 0.0 <= a.tail_prob[pair] <= 1.0
    values = np.array([draw[pair] for draw in a.draws for pair in mb.CANONICAL_PAIRS])
    mean_recomputed = np.array([
        np.mean([draw[pair] for draw in a.draws]) for pair in mb.CANONICAL_PAIRS
    ])
    assert np.allclose(mean_recomputed, [a.mean[p] for p in mb.CANONICAL_PAIRS])
    assert np.all(np.isfinite(values))


def test_bootstrap_balance_convention_flip():
    # relabeling Terran and Protoss permutes and negates the components
    _, d = casual_base_league(86, n_pro_games=900, n_pros=10, casuals_per_race=8,
                              matchup_sd=0.0)
    relabel = {"Terran": "Protoss", "Protoss": "Terran", "Zerg": "Zerg"}
    flipped = Dataset.from_records(
        MatchRecord(r.winner, r.player1, relabel[r.race1], r.player2,
                    relabel[r.race2], r.map_name, r.date, r.duration)
        for r in d.records
    )
    a = mb.bootstrap_balance(d, B=30, min_games=6, seed=5)
    b = mb.bootstrap_balance(flipped, B=30, min_games=6, seed=5)
    tp, tz, pz = mb.CANONICAL_PAIRS
    assert b.mean[tp] == pytest.approx(-a.mean[tp], abs=1e-6)
    assert b.mean[tz] == pytest.approx(a.mean[pz], abs=1e-6)
    assert b.mean[pz] == pytest.approx(a.mean[tz], abs=1e-6)
    zero_draws = sum(abs(draw[tp]) < 1e-9 for draw in a.draws)
    if zero_draws == 0:
        assert b.tail_prob[tp] == pytest.approx(1.0 - a.tail_prob[tp], abs=1e-9)


def test_bootstrap_failure_ceiling():
    _, d = casual_base_league(87, n_pro_games=300, n_pros=8, casuals_per_race=4)
    opts = FitOptions(max_iterations=1, tolerance=1e-16)
    with pytest.raises(mb.BootstrapError, match="unstable"):
        mb.bootstrap_balance(d, B=10, opts=opts, min_games=6, seed=0)
    with pytest.raises(mb.BootstrapError):
        mb.bootstrap_dispersion(d, B=10, opts=opts, min_games=6, seed=0)


def test_bootstrap_draw_count_validation():
    _, d = casual_base_league(88, n_pro_games=300, n_pros=8, casuals_per_race=4)
    with pytest.raises(ValueError):
        mb.bootstrap_balance(d, B=0)
    with pytest.raises(ValueError):
        mb.bootstrap_dispersion(d, B=1)


def test_bootstrap_dispersion_well_specified():
    _, d = simple_league(89, n=800, n_players=16, matchup_sd=0.5)
    summary = mb.bootstrap_dispersion(d, B=60, min_games=6, seed=2)
    assert summary.failed == 0
    assert len(summary.draws) == 60
    assert 0.9 <= summary.mean <= 1.1
    assert summary.sd == pytest.approx(np.std(summary.draws, ddof=1))


def test_bootstrap_dispersion_duplicated_rows_stay_near_one():
    # duplicating every record leaves row-level dispersion unchanged:
    # a Bernoulli response cannot be marginally overdispersed
    _, d = simple_league(89, n=800, n_players=16, matchup_sd=0.5)
    doubled = Dataset.from_records(tuple(d.records) + tuple(d.records))
    summary = mb.bootstrap_dispersion(doubled, B=60, min_games=6, seed=2)
    assert 0.85 <= summary.mean <= 1.15


def test_bootstrap_jobs_do_not_change_results():
    _, d = casual_base_league(91, n_pro_games=400, n_pros=8, casuals_per_race=6)
    serial = mb.bootstrap_balance(d, B=16, min_games=6, seed=6)
    threaded = mb.bootstrap_balance(d, B=16, min_games=6, seed=6, jobs=4)
    assert serial.draws == threaded.draws
    assert serial.tail_prob == threaded.tail_prob


def test_bootstrap_draws_equal_the_record_pipeline():
    # each draw codes no records, yet equals resampling them and refitting
    _, d = casual_base_league(90, n_pro_games=400, n_pros=8, casuals_per_race=6)
    summary = mb.bootstrap_balance(d, B=10, min_games=6, seed=4)
    expected = []
    for b in range(10):
        sample = mb.resample(d, np.random.default_rng(np.random.SeedSequence((4, b))))
        fit = mb.fit_irls(mb.build_design(sample, mb.build_parameter_index(sample, 6)))
        assert fit.converged
        expected.append(mb.aggregate_balance(fit).per_pair)
    assert summary.failed == 0
    assert summary.draws == expected
