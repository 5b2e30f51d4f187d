import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import matchbalance as mb
from matchbalance import bootstrap as bt
from matchbalance.data import Dataset, MatchRecord
from matchbalance.glm import FitError, FitOptions
from helpers import casual_base_league, simple_league
from oracles import resample_records


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
    beta[idx.matchup_columns[maps[0], ("Terran", "Protoss")]] = 0.2
    beta[idx.matchup_columns[maps[1], ("Terran", "Protoss")]] = 0.4
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


def test_bootstrap_jobs_below_one_are_refused():
    _, d = casual_base_league(88, n_pro_games=300, n_pros=8, casuals_per_race=4)
    for run in (mb.bootstrap_balance, mb.bootstrap_dispersion):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                run(d, B=4, min_games=6, seed=0, jobs=jobs)


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
    for run in (mb.bootstrap_balance, mb.bootstrap_dispersion):
        serial = run(d, B=16, min_games=6, seed=6)
        pooled = run(d, B=16, min_games=6, seed=6, jobs=4)
        assert serial == pooled
        assert multiprocessing.active_children() == []


def test_bootstrap_failures_are_counted_by_cause(monkeypatch):
    _, d = casual_base_league(87, n_pro_games=300, n_pros=8, casuals_per_race=4)
    opts = FitOptions(max_iterations=1, tolerance=1e-16)
    with pytest.raises(mb.BootstrapError, match=r"10 of 10 .*\(10 did not converge\)"):
        mb.bootstrap_balance(d, B=10, opts=opts, min_games=6, seed=0)

    # the draws' fits come as stacks from bt._fit_stacks: plant 3 FitErrors
    # among the fits it hands on and 2 ValueErrors in the draws' encoder
    designs = iter(range(10))
    design = bt._design
    fit_stacks = bt._fit_stacks

    def failing_design(*args):
        if next(designs) in (3, 4):
            raise ValueError("planted")
        return design(*args)

    def failing_fits(designs, opts, use):
        draws = iter(range(10))

        def planted(data, fit):
            return use(data, FitError("planted") if next(draws) < 3 else fit)

        return fit_stacks(designs, opts, planted)

    monkeypatch.setattr(bt, "_design", failing_design)
    monkeypatch.setattr(bt, "_fit_stacks", failing_fits)
    with pytest.raises(mb.BootstrapError,
                       match=r"5 of 10 .*\(3 raised FitError, 2 raised ValueError\)"):
        mb.bootstrap_balance(d, B=10, min_games=6, seed=0)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the planted draw reaches workers only by fork")
def test_bootstrap_dead_worker_raises_bootstrap_error(monkeypatch):
    _, d = casual_base_league(84, n_pro_games=400, n_pros=8, casuals_per_race=6)
    monkeypatch.setattr(bt, "_run_draws", lambda *args: os._exit(9))
    with pytest.raises(mb.BootstrapError, match="worker process died"):
        mb.bootstrap_balance(d, B=4, min_games=6, seed=3, jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the planted draw reaches workers only by fork")
def test_bootstrap_error_paths_leave_no_worker(monkeypatch):
    _, d = casual_base_league(87, n_pro_games=300, n_pros=8, casuals_per_race=4)
    opts = FitOptions(max_iterations=1, tolerance=1e-16)
    with pytest.raises(mb.BootstrapError, match="unstable"):
        mb.bootstrap_dispersion(d, B=4, opts=opts, min_games=6, seed=0, jobs=2)
    assert multiprocessing.active_children() == []

    def raising_draw(*args):
        raise ArithmeticError("planted")

    monkeypatch.setattr(bt, "_run_draws", raising_draw)
    with pytest.raises(ArithmeticError, match="planted"):
        mb.bootstrap_balance(d, B=4, min_games=6, seed=0, jobs=2)
    assert multiprocessing.active_children() == []


def test_import_starts_no_process_machinery():
    src = Path(mb.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys, matchbalance; print(sorted(m for m in sys.modules "
            "if m in ('multiprocessing', 'concurrent.futures.process')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_bootstrap_draws_equal_the_record_pipeline():
    # each draw is game counts on the distinct coded rows, yet equals
    # resampling the records, encoding them against the full data's index
    # and refitting
    _, d = casual_base_league(90, n_pro_games=400, n_pros=8, casuals_per_race=6)
    idx = mb.build_parameter_index(d, 6)
    expected = []
    for b in range(10):
        sample = resample_records(d, np.random.default_rng(np.random.SeedSequence((4, b))))
        fit = mb.fit_irls(mb.build_design(sample, idx))
        assert fit.converged
        expected.append(mb.aggregate_balance(fit).per_pair)
    for jobs in (1, 2):
        summary = mb.bootstrap_balance(d, B=10, min_games=6, seed=4, jobs=jobs)
        assert summary.failed == 0
        assert summary.draws == expected


def test_bootstrap_dispersion_draws_equal_the_record_pipeline():
    # each draw is game counts on the distinct coded rows, and its dispersion
    # sums the games in draw order, so it equals resampling the records,
    # encoding them against the full data's index and refitting
    _, d = casual_base_league(90, n_pro_games=400, n_pros=8, casuals_per_race=6)
    idx = mb.build_parameter_index(d, 6)
    expected = []
    for b in range(10):
        sample = resample_records(d, np.random.default_rng(np.random.SeedSequence((4, b))))
        data = mb.build_design(sample, idx)
        fit = mb.fit_irls(data)
        assert fit.converged
        expected.append(mb.pearson_dispersion(fit, data).phi)
    for jobs in (1, 2):
        summary = mb.bootstrap_dispersion(d, B=10, min_games=6, seed=4, jobs=jobs)
        assert summary.failed == 0
        assert summary.draws == expected


def test_bootstrap_indexes_the_dataset_once_per_call(monkeypatch):
    _, d = casual_base_league(90, n_pro_games=400, n_pros=8, casuals_per_race=6)
    calls = []
    index = bt._index

    def counted_index(*args):
        calls.append(args[2])
        return index(*args)

    monkeypatch.setattr(bt, "_index", counted_index)
    assert mb.bootstrap_balance(d, B=10, min_games=6, seed=4).failed == 0
    assert calls == [6]


def test_bootstrap_refuses_bad_min_games_and_empty_data_from_the_call():
    _, d = casual_base_league(88, n_pro_games=300, n_pros=8, casuals_per_race=4)
    for run in (mb.bootstrap_balance, mb.bootstrap_dispersion):
        with pytest.raises(ValueError, match="min_games must be a positive integer"):
            run(d, B=4, min_games=0, seed=0)
        with pytest.raises(ValueError, match="empty dataset"):
            run(Dataset.from_records([]), B=4, seed=0)


def test_bootstrap_balance_means_track_the_full_fit_on_demo_07s_league():
    # every draw has the full fit's anchored players, so the bootstrap
    # distribution centres on the full estimate (a re-anchored draw moved the
    # Terran-Protoss mean by 0.66 SD here)
    rng = np.random.default_rng(7)
    truth = mb.random_league(60, 3, rng, schedule="tournament_tail")
    d = mb.generate(truth, 3000, rng)
    full = mb.aggregate_balance(
        mb.fit_irls(mb.build_design(d, mb.build_parameter_index(d, 6)))).per_pair
    summary = mb.bootstrap_balance(d, B=200, min_games=6, seed=2)
    assert summary.failed == 0
    for pair in mb.CANONICAL_PAIRS:
        assert abs(summary.mean[pair] - full[pair]) <= 0.25 * summary.sd[pair]


def test_bootstrap_balance_draws_lacking_a_matchup_cell_fail(monkeypatch):
    # a map holds a single Terran-Protoss game; a draw that does not pick it
    # would enter that cell's column at 0, so it fails with its own cause
    _, d = casual_base_league(91, n_pro_games=400, n_pros=8, casuals_per_race=6)
    records = [r for r in d.records if r.map_name != "map_01"
               or {r.race1, r.race2} != {"Terran", "Protoss"}]
    lone = next(i for i, r in enumerate(records) if r.map_name == "map_01"
                and r.race1 != r.race2)
    records[lone] = replace(records[lone], race1="Terran", race2="Protoss")
    planted = Dataset.from_records(records)
    idx = mb.build_parameter_index(planted, 6)
    picking, expected = [], []
    for b in range(12):
        rng = np.random.default_rng(np.random.SeedSequence((5, b)))
        rows = rng.integers(0, len(planted), size=len(planted))
        picking.append(lone in rows)
        if picking[-1]:
            sample = Dataset.from_records(planted.records[i] for i in rows)
            expected.append(mb.aggregate_balance(
                mb.fit_irls(mb.build_design(sample, idx))).per_pair)
    lacking = picking.count(False)
    assert 0.2 * 12 < lacking < 12
    with pytest.raises(mb.BootstrapError,
                       match=rf"{lacking} of 12 .*\({lacking} lacks a matchup cell\)"):
        mb.bootstrap_balance(planted, B=12, min_games=6, seed=5)
    # the dispersion does not average over maps: no draw of it fails so
    assert mb.bootstrap_dispersion(planted, B=12, min_games=6, seed=5).failed == 0

    monkeypatch.setattr(bt, "MAX_FAILURE_FRACTION", 1.0)
    summary = mb.bootstrap_balance(planted, B=12, min_games=6, seed=5)
    assert summary.failed == lacking
    assert summary.draws == expected


def test_bootstrap_draws_holding_an_unrecognized_race_tag_fail():
    # as with building each draw's design: a draw fails exactly when it holds a
    # game with a race tag outside the three, and the others are refitted
    _, d = casual_base_league(84, n_pro_games=400, n_pros=8, casuals_per_race=6)
    records = list(d.records)
    records[5] = replace(records[5], race1="Random")
    raw = Dataset.from_records(records)
    holding = [5 in np.random.default_rng(np.random.SeedSequence((3, b))).integers(
        0, len(raw), size=len(raw)) for b in range(12)]
    assert 0 < sum(holding) < 12
    with pytest.raises(mb.BootstrapError,
                       match=rf"{sum(holding)} of 12 .*\({sum(holding)} raised ValueError\)"):
        mb.bootstrap_balance(raw, B=12, min_games=6, seed=3)
