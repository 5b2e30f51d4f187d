"""Independent oracles the tests check the library against.

Each oracle reaches its answer by a different route than the code under
test: gradient ascent instead of Newton steps, adaptive quadrature
instead of incomplete-gamma evaluation, central differences instead of
the analytic score, direct per-row probability products instead of
the vectorized likelihood, and per-record scalar lookups instead of
the sparse design for cross-validated prediction.
"""
from collections import deque
from math import exp, gamma, log

import numpy as np
import scipy.integrate

from matchbalance.data import Dataset
from matchbalance.design import build_design, build_parameter_index, canonical_orientation
from matchbalance.glm import fit_irls, log_likelihood, score, sigmoid


def gd_maximize(data, tol=1e-10, max_iter=100000):
    """Barzilai-Borwein gradient ascent on the same likelihood.

    Uses a non-monotone acceptance rule (max of the last 10 values,
    with absolute slack) so progress continues once log-likelihood
    changes drop below float resolution.  Columns with no observations
    stay at zero, matching the fitter's frozen-column convention.
    """
    counts = data.column_counts()
    active = counts > 0
    beta = np.zeros(data.p)
    g = score(beta, data) * active
    step = 1e-3
    ll = log_likelihood(beta, data)
    recent = deque([ll], maxlen=10)
    for it in range(max_iter):
        gn = np.max(np.abs(g))
        if gn <= tol:
            return beta, it, gn
        ref = max(recent)
        s = min(step, 1e6)
        for _ in range(40):
            cand = beta + s * g
            ll_new = log_likelihood(cand, data)
            if ll_new >= ref - 1e-10:
                break
            s *= 0.5
        g_new = score(cand, data) * active
        db = cand - beta
        dg = g_new - g
        denom = -float(np.dot(db, dg))
        step = float(np.dot(db, db)) / denom if denom > 1e-300 else s * 2
        beta, g, ll = cand, g_new, ll_new
        recent.append(ll)
    return beta, max_iter, np.max(np.abs(g))


def quad_chi_square_sf(x, df):
    """Upper-tail chi-square probability by adaptive quadrature of the density."""
    half = df / 2.0
    norm = 2.0 ** half * gamma(half)

    def density(t):
        return t ** (half - 1.0) * exp(-t / 2.0) / norm

    value, _err = scipy.integrate.quad(density, x, np.inf, limit=200)
    return value


def finite_diff_score(beta, data, h=1e-6):
    """Central-difference gradient of the log-likelihood."""
    out = np.zeros(data.p)
    for j in range(data.p):
        up = beta.copy()
        down = beta.copy()
        up[j] += h
        down[j] -= h
        out[j] = (log_likelihood(up, data) - log_likelihood(down, data)) / (2 * h)
    return out


def brute_force_log_likelihood(beta, rows, response):
    """Per-row Bernoulli product via explicit row dicts and math.exp."""
    total = 0.0
    for row, y in zip(rows, response):
        eta = 0.0
        for col, sign in row.items():
            eta += sign * beta[col]
        pi = 1.0 / (1.0 + exp(-eta))
        total += log(pi) if y == 1 else log(1.0 - pi)
    return total


def predict_record(fit, record):
    """0.5-threshold prediction by scalar lookup of each term.

    Players and maps the fit does not know contribute 0; ties predict
    that player1 wins.
    """
    eta = fit.player_estimate(record.player1) - fit.player_estimate(record.player2)
    pair, sign = canonical_orientation(record.race1, record.race2)
    if pair is not None and (record.map_name, pair) in fit.index.matchup_columns:
        eta += sign * fit.matchup_estimate(record.map_name, pair)
    return 1 if sigmoid(eta) >= 0.5 else 0


def cv_accuracies(d, k, opts, min_games, seed):
    """Per-fold (train, test) accuracies of k-fold CV, scored record by record.

    Folds are drawn as ``k_fold_cv`` documents them: a seeded uniform
    permutation split into k near-equal parts.
    """
    rng = np.random.default_rng(seed)
    per_fold = []
    for fold in np.array_split(rng.permutation(len(d.records)), k):
        test_rows = set(fold.tolist())
        train = [r for i, r in enumerate(d.records) if i not in test_rows]
        test = [d.records[i] for i in sorted(test_rows)]
        train_d = Dataset.from_records(train)
        fit = fit_irls(build_design(train_d, build_parameter_index(train_d, min_games)),
                       opts)
        per_fold.append(tuple(
            sum(predict_record(fit, r) == r.winner for r in records) / len(records)
            for records in (train, test)
        ))
    return per_fold
