import datetime as dt
import math

import numpy as np
import pytest
import scipy.special

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance import glm
from matchbalance.glm import FitOptions
from helpers import noise_league, pinned_small_league, simple_league
from oracles import (
    brute_force_log_likelihood,
    coordinate_descent_lasso,
    dense_newton_fit,
    encode_row,
    finite_diff_score,
    gd_maximize,
    log_loss_logaddexp,
    per_game,
    quad_chi_square_sf,
    residual_expit,
)


def record(p1, r1, p2, r2, winner=1, map_name="M"):
    return MatchRecord(winner, p1, r1, p2, r2, map_name, dt.date(2011, 1, 1), 60)


def swap_all(d):
    return Dataset.from_records(
        MatchRecord(1 - r.winner, r.player2, r.race2, r.player1, r.race1,
                    r.map_name, r.date, r.duration)
        for r in d.records
    )


# ---------------------------------------------------------------- sigmoid

def test_sigmoid_reference_points():
    # 1 / (1 + exp(-0.36336)) evaluated directly
    assert mb.sigmoid(0.36336) == pytest.approx(1 / (1 + math.exp(-0.36336)), abs=1e-15)
    assert mb.sigmoid(0.36336) == pytest.approx(0.58985355, abs=1e-7)
    assert mb.sigmoid(0.0) == 0.5
    assert mb.sigmoid(-0.36336) == pytest.approx(0.41014645, abs=1e-7)


def test_sigmoid_complement_and_monotonicity():
    etas = np.linspace(-40, 40, 2001)
    values = mb.sigmoid(etas)
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values + mb.sigmoid(-etas) - 1.0)) < 1e-15
    assert mb.sigmoid(800.0) == 1.0  # saturates, never raises
    # a float, a 0-d array and an array element give the same bits
    for eta, value in zip(etas.tolist() + [-800.0, 1e-300], values.tolist() + [0.0, 0.5]):
        assert type(mb.sigmoid(eta)) is float
        assert mb.sigmoid(eta) == mb.sigmoid(np.array(eta)) == value


# ---------------------------------------------------------- log-likelihood

def test_one_exp_loss_and_residual_match_the_logaddexp_and_expit_forms():
    rng = np.random.default_rng(5)
    edge = 709.0 + np.geomspace(1e-3, 91.0, 200)  # where expit and exp(-|eta|) underflow
    eta = np.concatenate([np.linspace(-800.0, 800.0, 16001), rng.uniform(-40.0, 40.0, 4000),
                          [0.0, -0.0, 5e-324, -5e-324], edge, -edge])
    games = rng.integers(1, 6, eta.size).astype(float)
    wins = np.floor(rng.uniform(0.0, games + 1.0))
    rows = np.arange(eta.size)

    def within_ulps(got, want, scale):
        return np.abs(got - want) <= 4 * np.spacing(scale)

    loss = glm._log_loss(eta, games, wins, rows)
    assert np.all(within_ulps(loss, log_loss_logaddexp(eta, games, wins, rows), loss))
    residual, variance = glm._residual(eta, games, wins)
    want_residual, want_variance = residual_expit(eta, games, wins)
    # expit underflows to 0 from |eta| of about 709.78, e/(1 + e) only past 745:
    # there the one-exp form keeps a subnormal probability
    tiny = np.finfo(float).tiny
    under = (want_variance == 0.0) & (np.exp(-np.abs(eta)) > 0.0)
    assert under.sum() > 50 and np.all((0.0 < variance[under]) & (variance[under] < tiny))
    assert np.all(np.abs(residual - want_residual)[under] <= games[under] * tiny)
    # elsewhere a few ulps; the residual's two terms, whose sum may cancel, scale its ulps
    terms = wins * scipy.special.expit(-eta) + (games - wins) * scipy.special.expit(eta)
    assert np.all(within_ulps(residual, want_residual, terms)[~under])
    assert np.all(within_ulps(variance, want_variance, want_variance)[~under])
    # swapping the sides of every game: the same loss, the residual negated
    assert glm._log_loss(-eta, games, games - wins, rows).tobytes() == loss.tobytes()
    swapped = glm._residual(-eta, games, games - wins)
    assert np.array_equal(swapped[0], -residual)  # a zero residual keeps its +0.0
    assert swapped[1].tobytes() == variance.tobytes()


def test_log_likelihood_null_vector():
    _, d = simple_league(20, n=123)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    assert mb.log_likelihood(np.zeros(data.p), data) == pytest.approx(
        123 * math.log(0.5), rel=1e-12
    )


def test_log_likelihood_all_zero_row():
    d = Dataset.from_records([record("A", "Terran", "B", "Terran")])
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=5))
    beta = np.full(data.p, 2.7)
    assert mb.log_likelihood(beta, data) == pytest.approx(math.log(0.5), rel=1e-12)


def test_log_likelihood_matches_brute_force_product():
    recs = [
        record("A", "Terran", "B", "Zerg", winner=1),
        record("B", "Zerg", "C", "Protoss", winner=0),
        record("C", "Protoss", "A", "Terran", winner=1),
        record("A", "Terran", "C", "Protoss", winner=0),
    ]
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    data = mb.build_design(d, idx)
    rng = np.random.default_rng(0)
    for _ in range(5):
        beta = rng.normal(size=data.p)
        rows = [encode_row(r, idx) for r in recs]
        expected = brute_force_log_likelihood(beta, rows, [r.winner for r in recs])
        assert mb.log_likelihood(beta, data) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_dimension_mismatch():
    _, d = simple_league(21, n=40)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    with pytest.raises(ValueError, match="shape"):
        mb.log_likelihood(np.zeros(data.p + 1), data)


def test_score_matches_finite_differences():
    _, d = simple_league(22, n=250)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
    rng = np.random.default_rng(1)
    beta = rng.normal(scale=0.5, size=data.p)
    analytic = mb.score(beta, data)
    numeric = finite_diff_score(beta, data)
    denom = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-6


# ------------------------------------------------------------------- IRLS

def test_fit_irls_balanced_pair_is_even_money():
    recs = [record("A", "Terran", "B", "Terran", winner=i % 2) for i in range(10)]
    d = Dataset.from_records(recs)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    fit = mb.fit_irls(data)
    assert fit.converged
    assert np.allclose(fit.coefficients, 0.0, atol=1e-8)
    assert np.allclose(fit.fitted_probabilities(data), 0.5)


def test_fit_irls_matches_gradient_descent_oracle():
    for seed in (3001, 3002, 3003):
        d = pinned_small_league(seed)
        data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
        fit = mb.fit_irls(data, FitOptions(tolerance=1e-12, max_iterations=200))
        oracle_beta, _, grad_norm = gd_maximize(data)
        assert grad_norm <= 1e-10
        assert np.max(np.abs(fit.coefficients - oracle_beta)) < 1e-6


def test_fit_irls_matches_the_dense_newton_oracle():
    # min_games=3 anchors the casuals and identifies the model; min_games=1
    # anchors one player only, which leaves the race directions unidentified,
    # and there the ridge picks them, so only the fit itself must agree
    identified = deficient = 0
    for seed in range(3001, 3011):
        d = pinned_small_league(seed)
        for min_games in (3, 1):
            data = mb.build_design(d, mb.build_parameter_index(d, min_games))
            fit = mb.fit_irls(data)
            beta, deviance, iterations, converged, stabilized = dense_newton_fit(data)
            assert (fit.stabilized, fit.iterations, fit.converged) == (
                stabilized, iterations, converged)
            if stabilized:
                deficient += 1
                assert fit.deviance == pytest.approx(deviance, rel=1e-8)
            else:
                identified += 1
                assert np.max(np.abs(fit.coefficients - beta)) < 1e-8
    assert identified == deficient == 10


def test_fit_irls_raises_when_conjugate_gradients_fail(monkeypatch):
    d = pinned_small_league(3001)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
    monkeypatch.setattr(glm, "_cg", lambda matrix, diagonal, rhs, stack, tolerance: (
        0 * rhs, np.zeros(stack.sizes.size, bool)))
    with pytest.raises(mb.FitError, match="did not solve the Newton system") as raised:
        mb.fit_irls(data)
    assert raised.value.result.iterations == 1


def test_fit_irls_monotone_deviance_and_convergence_metadata():
    _, d = simple_league(23, n=400)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
    fit = mb.fit_irls(data)
    assert fit.converged
    assert fit.iterations <= 100
    assert fit.deviance >= 0
    assert np.all(np.diff(fit.deviance_path) <= 0)
    assert fit.deviance == pytest.approx(-2 * fit.log_likelihood, rel=1e-12)


def test_fit_irls_swap_invariance():
    # identified instance: with a unique optimum, relabeling the two
    # sides of every game (winner flipped) must not move the fit
    d = pinned_small_league(3005)
    opts = FitOptions(tolerance=1e-12, max_iterations=200)
    fit = mb.fit_irls(mb.build_design(d, mb.build_parameter_index(d, min_games=3)), opts)
    flipped = swap_all(d)
    fit2 = mb.fit_irls(
        mb.build_design(flipped, mb.build_parameter_index(flipped, min_games=3)), opts
    )
    assert np.allclose(fit.coefficients, fit2.coefficients, atol=1e-8)
    # the last Newton step of this league changes the deviance by less than
    # its float resolution; the iteration is swap-symmetric in every bit, so
    # rounding still cannot send the two fits different ways
    d = Dataset.from_records(record("A", "Terran", "B", "Terran", winner=w)
                             for w in (0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1))
    idx = mb.build_parameter_index(d, min_games=1)
    fit = mb.fit_irls(mb.build_design(d, idx))
    fit2 = mb.fit_irls(mb.build_design(swap_all(d), idx))
    assert np.array_equal(fit.coefficients, fit2.coefficients)


def test_fit_irls_rejects_penalty_and_empty_data():
    _, d = simple_league(25, n=50)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    with pytest.raises(ValueError, match="unpenalized"):
        mb.fit_irls(data, FitOptions(l1_lambda=0.5))
    with pytest.raises(ValueError, match="empty"):
        mb.fit_irls(data.subset(np.array([], dtype=int)))


def test_fit_irls_flags_non_convergence():
    _, d = simple_league(26, n=500, skill_sd=2.0)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
    fit = mb.fit_irls(data, FitOptions(max_iterations=1, tolerance=1e-14))
    assert not fit.converged
    assert fit.iterations == 1


def test_fit_irls_stabilizes_structurally_confounded_design():
    # the lone unanchored player appears only with one matchup column,
    # so the two active columns are exactly collinear; with every game won
    # by one side the outcomes are separated too, and the ridge must stay
    # small beside the capped weights for the fit to converge
    for winners in ([i % 2 for i in range(12)], [1] * 12, [0] * 12):
        d = Dataset.from_records(record("A", "Terran", "B", "Protoss", winner=w)
                                 for w in winners)
        idx = mb.build_parameter_index(d, min_games=1)
        fit = mb.fit_irls(mb.build_design(d, idx))
        assert fit.stabilized
        assert fit.converged


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(max_iterations=0)
    with pytest.raises(ValueError):
        FitOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        FitOptions(l1_lambda=-0.1)


@pytest.mark.parametrize("field", ["tolerance", "l1_lambda"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fit_options_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FitOptions(**{field: value})


# ------------------------------------------------------------------ lasso

def test_lasso_zero_penalty_matches_irls():
    d = pinned_small_league(3004)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
    ir = mb.fit_irls(data, FitOptions(tolerance=1e-12, max_iterations=200))
    la = mb.fit_lasso(data, FitOptions(l1_lambda=0.0, tolerance=1e-10,
                                       max_iterations=500))
    assert la.converged
    assert np.max(np.abs(ir.coefficients - la.coefficients)) < 1e-6


def test_lasso_full_shrinkage():
    _, d = simple_league(27, n=300)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    fit = mb.fit_lasso(data, FitOptions(l1_lambda=1e6))
    assert np.all(fit.coefficients == 0.0)
    assert fit.l1_lambda == 1e6


def test_lasso_kkt_conditions():
    _, d = noise_league(91)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    lam = 0.75
    fit = mb.fit_lasso(data, FitOptions(l1_lambda=lam, max_iterations=300))
    assert fit.converged
    pi = fit.fitted_probabilities(data)
    X = per_game(data)
    g = X.T @ (data.response - pi)
    observed = np.bincount(X.indices, minlength=data.p) > 0
    zero = (fit.coefficients == 0.0) & observed
    nonzero = (fit.coefficients != 0.0)
    assert np.all(np.abs(g[zero]) <= lam + 1e-6)
    assert np.max(np.abs(g[nonzero] - lam * np.sign(fit.coefficients[nonzero]))) < 1e-6
    assert zero.sum() > 0 and nonzero.sum() > 0


def test_lasso_exact_zeros_exist_at_moderate_penalty():
    _, d = noise_league(92)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    fit = mb.fit_lasso(data, FitOptions(l1_lambda=1.0, max_iterations=300))
    noise_cols = [idx.player_columns[p] for p in idx.player_columns if p.startswith("noise_")]
    assert np.mean(fit.coefficients[noise_cols] == 0.0) > 0.5


def test_lasso_warm_start_converges_to_cold_start():
    _, d = noise_league(91)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    neighbour = mb.fit_lasso(data, FitOptions(l1_lambda=1.0, max_iterations=300))
    start = neighbour.coefficients.copy()
    opts = FitOptions(l1_lambda=0.75, max_iterations=300)
    cold = mb.fit_lasso(data, opts)
    warm = mb.fit_lasso(data, opts, warm_start=neighbour.coefficients)
    assert cold.converged and warm.converged
    assert np.count_nonzero(start) > 0
    assert np.array_equal(neighbour.coefficients, start)  # the start is not modified
    assert warm.iterations < cold.iterations  # the start was used
    assert np.max(np.abs(warm.coefficients - cold.coefficients)) < 1e-6


def lasso_paths(data):
    """Yield (lambda, fit_lasso's coefficients, the oracle's) down warm-started
    paths over 8 penalties from lambda_max to 5% of it."""
    fit_warm = oracle_warm = None
    for lam in mb.default_lambda_grid(data, num=8, ratio=0.05):
        opts = FitOptions(l1_lambda=float(lam), max_iterations=300)
        fit = mb.fit_lasso(data, opts, warm_start=fit_warm)
        oracle_warm, _, oracle_converged = coordinate_descent_lasso(data, opts, oracle_warm)
        assert fit.converged and oracle_converged
        fit_warm = fit.coefficients
        yield float(lam), fit.coefficients, oracle_warm


@pytest.mark.parametrize("seed", [91, 92])
def test_lasso_path_matches_the_coordinate_descent_oracle(seed):
    _, d = noise_league(seed)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    for _, beta, reference in lasso_paths(mb.build_design(d, idx)):
        assert np.array_equal(np.sign(beta), np.sign(reference))  # zero set and signs
        assert np.max(np.abs(beta - reference)) < 1e-6


def test_lasso_path_objective_matches_the_oracle_where_the_optimum_is_not_unique():
    # unanchored, the likelihood is flat along shifts of the player skills
    # (and of one race's skills against its matchup columns); where the
    # penalty is flat along such a shift too, the optimum is not unique and
    # the two solvers may stop at different points of it (by 0.01 on this
    # league's last two penalties), so only the penalized objective is compared
    _, d = simple_league(42)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    for lam, beta, reference in lasso_paths(data):
        objective, best = (-mb.log_likelihood(b, data) + lam * np.abs(b).sum()
                           for b in (beta, reference))
        assert objective <= best + 1e-10 * abs(best)


def test_lambda_max_kills_everything():
    _, d = simple_league(28, n=200)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    top = mb.lambda_max(data)
    fit = mb.fit_lasso(data, FitOptions(l1_lambda=top * 1.0001))
    assert np.all(fit.coefficients == 0.0)
    grid = mb.default_lambda_grid(data, num=50)
    assert len(grid) == 50
    assert grid[0] == pytest.approx(top)
    assert np.all(np.diff(grid) < 0)


# --------------------------------------------------------------- lambda CV

def test_select_lambda_trivial_grid():
    _, d = simple_league(29, n=150)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    assert mb.select_lambda_cv(data, 3, [0.0], seed=1) == 0.0


def test_select_lambda_tie_prefers_larger():
    _, d = simple_league(30, n=150)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    # both penalties shrink everything to zero, so accuracies tie exactly
    assert mb.select_lambda_cv(data, 3, [1e7, 1e8], seed=1) == 1e8


def test_select_lambda_zeroes_noise_players():
    _, d = noise_league(91)
    idx_anchor = mb.build_parameter_index(d, min_games=6)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    grid = mb.default_lambda_grid(data, num=30)
    lam = mb.select_lambda_cv(data, 6, grid, seed=7)
    fit = mb.fit_lasso(data, FitOptions(l1_lambda=lam, max_iterations=300))
    noise_cols = [idx.player_columns[p] for p in idx_anchor.anchored_players]
    assert np.mean(fit.coefficients[noise_cols] == 0.0) > 0.5


def test_select_lambda_validation():
    _, d = simple_league(31, n=60)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    with pytest.raises(ValueError, match="fold"):
        mb.select_lambda_cv(data, 1, [0.1], seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        mb.select_lambda_cv(data, 3, [], seed=0)
    # more folds than rows would leave a fold without test rows
    with pytest.raises(ValueError, match="need at least 10 records"):
        mb.select_lambda_cv(data.subset(np.arange(6)), 10, [0.1], seed=0)


def test_select_lambda_deterministic():
    _, d = simple_league(32, n=200)
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = mb.build_design(d, idx)
    grid = mb.default_lambda_grid(data, num=8)
    a = mb.select_lambda_cv(data, 4, grid, seed=3)
    b = mb.select_lambda_cv(data, 4, grid, seed=3)
    assert a == b


# ----------------------------------------------------------- chi-square sf

def test_chi_square_sf_trivial_and_reference():
    assert mb.chi_square_sf(0.0, 1) == 1.0
    assert mb.chi_square_sf(0.0, 8) == 1.0
    assert mb.chi_square_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)
    assert mb.chi_square_sf(15.507, 8) == pytest.approx(0.05, abs=1e-4)


def test_chi_square_sf_against_quadrature_oracle():
    for x, df in [(0.3, 1), (3.8415, 1), (2.5, 3), (15.507, 8), (30.0, 10), (1.2, 2)]:
        assert mb.chi_square_sf(x, df) == pytest.approx(
            quad_chi_square_sf(x, df), abs=1e-9
        )


def test_chi_square_sf_validation():
    with pytest.raises(ValueError):
        mb.chi_square_sf(1.0, 0)
    with pytest.raises(ValueError):
        mb.chi_square_sf(1.0, -2)
    with pytest.raises(ValueError):
        mb.chi_square_sf(-0.5, 3)
