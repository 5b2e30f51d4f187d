"""Model-adequacy battery for a fitted paired-comparison model.

Covers the likelihood-ratio test against the constant model, the
Hosmer-Lemeshow calibration test on deciles of fitted probability,
quasi-binomial dispersion, Pearson residual export, seeded k-fold
cross-validated accuracy, and the overlap between threshold anchoring
and an L1 fit's zero set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .design import EncodedDataset, _check, _columns, _counted_design, _design
from .glm import (FitError, FitOptions, FitResult, _accuracy, _cv_folds, _fit_stacks,
                  chi_square_sf)


@dataclass
class HosmerLemeshowResult:
    """Grouped calibration test; df = groups - 2."""

    group_table: list[dict]
    statistic: float
    df: int
    p_value: float


@dataclass
class DispersionEstimate:
    """Pearson chi-square over residual degrees of freedom."""

    phi: float
    n: int
    p_effective: int


@dataclass
class CvSummary:
    """Per-fold train/test accuracies with sample-SD summaries."""

    per_fold: list[tuple[float, float]]
    train_mean: float
    train_sd: float
    test_mean: float
    test_sd: float
    k: int
    seed: int


def lrt_vs_constant(fit: FitResult, data: EncodedDataset) -> tuple[float, int, float]:
    """Likelihood-ratio test against the all-zero (coin-flip) model.

    Returns (statistic, df, p_value) with df equal to the number of
    actively estimated columns.  Invalid for penalized fits.
    """
    if fit.l1_lambda != 0:
        raise ValueError("likelihood-ratio test is invalid for a penalized fit")
    null_ll = data.n * float(np.log(0.5))
    statistic = 2.0 * (fit.log_likelihood - null_ll)
    df = fit.p_effective
    return statistic, df, chi_square_sf(max(statistic, 0.0), df)


def hosmer_lemeshow(
    fit: FitResult, data: EncodedDataset, groups: int = 10
) -> HosmerLemeshowResult:
    """Calibration test on near-equal-count bins of sorted fitted probability.

    Games sort ascending by fitted probability (stable, so ties keep
    their original order); bin sizes differ by at most one with the
    larger bins first.  The statistic sums (O-E)^2 / (E(1-mean pi))
    over bins.
    """
    if groups < 3:
        raise ValueError(f"groups must be >= 3 (df = groups - 2), got {groups}")
    if data.n < groups:
        raise ValueError(f"need at least {groups} rows, got {data.n}")
    pi = fit.fitted_probabilities(data)
    order = np.argsort(pi, kind="stable")
    statistic = 0.0
    table = []
    for chunk in np.array_split(order, groups):
        count = len(chunk)
        expected = float(pi[chunk].sum())
        observed = float(data.response[chunk].sum())
        mean_pi = expected / count
        if mean_pi in (0.0, 1.0):
            raise ValueError(
                f"degenerate calibration bin with mean fitted probability {mean_pi}"
            )
        statistic += (observed - expected) ** 2 / (expected * (1.0 - mean_pi))
        table.append(
            {
                "count": count,
                "mean_fitted": mean_pi,
                "observed": observed,
                "expected": expected,
            }
        )
    df = groups - 2
    return HosmerLemeshowResult(table, statistic, df, chi_square_sf(statistic, df))


def pearson_dispersion(fit: FitResult, data: EncodedDataset) -> DispersionEstimate:
    """Quasi-binomial dispersion: Pearson chi-square / (n - p_effective)."""
    if fit.l1_lambda != 0:
        raise ValueError("dispersion requires an unpenalized fit")
    if data.n <= fit.p_effective:
        raise ValueError(
            f"n={data.n} must exceed p_effective={fit.p_effective} for dispersion"
        )
    pi = fit.fitted_probabilities(data)
    chi2 = float(np.sum((data.response - pi) ** 2 / (pi * (1.0 - pi))))
    return DispersionEstimate(chi2 / (data.n - fit.p_effective), data.n, fit.p_effective)


def residuals_vs_fitted(fit: FitResult, data: EncodedDataset) -> list[tuple[float, float]]:
    """(fitted probability, Pearson residual) per game, in game order."""
    pi = fit.fitted_probabilities(data)
    if np.any(pi == 0.0) or np.any(pi == 1.0):
        raise ValueError("fitted probability of exactly 0 or 1; residual undefined")
    residuals = (data.response - pi) / np.sqrt(pi * (1.0 - pi))
    return list(zip(pi.tolist(), residuals.tolist()))


def k_fold_cv(
    d: Dataset,
    k: int = 10,
    opts: FitOptions = FitOptions(),
    min_games: int = 6,
    seed: int = 0,
) -> CvSummary:
    """Seeded k-fold cross-validated prediction accuracy.

    Rows are partitioned uniformly at random into k near-equal folds.
    Each fold's model is indexed and fitted from its training rows
    only; its test rows, in dataset order, are encoded against that
    index (both as counts on d's distinct coded rows), so unseen players
    or maps contribute 0 at prediction time, mirroring the anchoring
    policy.  The k training fits run together (``glm._fit_stacks``).
    """
    folds = _cv_folds(len(d), k, seed)
    _check(d)  # race tags, once: every fold's games are games of d

    designs = (_counted_design(d, train_rows, min_games) for train_rows, _ in folds)

    def trained(data, fit):  # what the test rows need, and no design
        if isinstance(fit, FitError):
            raise fit
        return data.index, fit.coefficients, _accuracy(fit.coefficients, data)

    per_fold: list[tuple[float, float]] = []
    for (_, test_rows), (idx, beta, train_acc) in zip(folds,
                                                     _fit_stacks(designs, opts, trained)):
        test = _design(d, test_rows, *_columns(d, idx), idx)
        per_fold.append((train_acc, _accuracy(beta, test)))

    train_acc = np.array([a for a, _ in per_fold])
    test_acc = np.array([b for _, b in per_fold])
    return CvSummary(
        per_fold=per_fold,
        train_mean=float(train_acc.mean()),
        train_sd=float(train_acc.std(ddof=1)),
        test_mean=float(test_acc.mean()),
        test_sd=float(test_acc.std(ddof=1)),
        k=k,
        seed=seed,
    )


def zero_overlap(threshold_anchored: set[str], lasso_fit: FitResult) -> float:
    """Fraction of threshold-anchored players the L1 fit zeroed exactly.

    The L1 fit must have been produced without anchoring, so every
    player in the comparison set owns a column there.
    """
    if not threshold_anchored:
        raise ValueError("threshold-anchored player set is empty")
    players = lasso_fit._lookup[0]
    zeroed = 0
    for player in threshold_anchored:
        if player not in players:
            raise ValueError(
                f"player {player!r} has no column in the L1 fit; "
                "it must be fitted without anchoring"
            )
        if players[player] == 0.0:
            zeroed += 1
    return zeroed / len(threshold_anchored)
