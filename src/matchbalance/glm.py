"""Binomial-logit fitting by iteratively reweighted least squares.

The unpenalized path is Newton-Raphson with step halving on the
deviance; the L1 path runs cyclic coordinate descent with soft
thresholding inside each reweighting, so exactly-zero coefficients are
representable.  Matchup columns with no observations are frozen at
zero and excluded from the solve (they are reported as having no data
rather than dropped from the index).

Linear predictors are capped at ``eta_cap`` when computing weights and
fitted probabilities, which keeps the weighted normal equations finite
under quasi-separation (undefeated players are common in this data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.special

from .design import EncodedDataset, ParameterIndex, index_from_obj, index_to_obj

LAST_RESORT_RIDGE = 1e-10
MAX_STEP_HALVINGS = 30


def sigmoid(eta):
    """Logistic function 1/(1+exp(-eta)), stable for large |eta|.

    Accepts scalars or arrays; satisfies sigmoid(-eta) == 1 - sigmoid(eta)
    up to one ulp.
    """
    arr = np.asarray(eta, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    if arr.ndim == 0:
        return float(out)
    return out


def log_likelihood(beta: np.ndarray, data: EncodedDataset) -> float:
    """Bernoulli log-likelihood sum_i [y_i log pi_i + (1-y_i) log(1-pi_i)].

    Computed as y*eta - log(1+exp(eta)) via logaddexp, which stays
    finite for any eta.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    eta = data.linear_predictor(beta)
    y = data.response.astype(float)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def score(beta: np.ndarray, data: EncodedDataset) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - pi)."""
    eta = data.linear_predictor(np.asarray(beta, dtype=float))
    return data.X.T @ (data.response - sigmoid(eta))


@dataclass(frozen=True)
class FitOptions:
    """Convergence and stabilization knobs for the fitters."""

    max_iterations: int = 100
    tolerance: float = 1e-8
    eta_cap: float = 30.0
    l1_lambda: float = 0.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.eta_cap <= 0:
            raise ValueError("eta_cap must be > 0")
        if self.l1_lambda < 0:
            raise ValueError("l1_lambda must be >= 0")


@dataclass(eq=False)
class FitResult:
    """Fitted coefficient vector plus fit metadata.

    Anchored players own no column, so their coefficients are
    implicitly zero.  ``no_data_columns`` lists matchup columns that
    had no observations and were frozen at zero.
    """

    coefficients: np.ndarray
    log_likelihood: float
    deviance: float
    iterations: int
    converged: bool
    l1_lambda: float
    index: ParameterIndex
    stabilized: bool = False
    eta_cap: float = 30.0
    no_data_columns: tuple[int, ...] = ()
    deviance_path: tuple[float, ...] = ()

    @property
    def p_effective(self) -> int:
        """Number of actively estimated columns."""
        return self.index.p - len(self.no_data_columns)

    def player_estimate(self, player: str) -> float:
        """Fitted skill; anchored and unknown players contribute 0."""
        col = self.index.player_columns.get(player)
        return float(self.coefficients[col]) if col is not None else 0.0

    def matchup_estimate(self, map_name: str, pair: tuple[str, str]) -> float:
        return float(self.coefficients[self.index.matchup_column(map_name, pair)])

    def fitted_probabilities(self, data: EncodedDataset) -> np.ndarray:
        """Per-row win probabilities with the fitting-time cap applied."""
        eta = np.clip(data.linear_predictor(self.coefficients),
                      -self.eta_cap, self.eta_cap)
        return sigmoid(eta)


class FitError(RuntimeError):
    """Fitting failed; carries the last iterate in ``result``."""

    def __init__(self, message: str, result: FitResult | None = None):
        super().__init__(message)
        self.result = result


def fit_irls(data: EncodedDataset, opts: FitOptions = FitOptions()) -> FitResult:
    """Maximum-likelihood fit via Newton-Raphson with step halving.

    Stops when the relative deviance change drops below
    ``opts.tolerance`` or after ``opts.max_iterations``; accepted steps
    never increase the deviance.
    """
    if opts.l1_lambda != 0:
        raise ValueError("fit_irls is unpenalized; use fit_lasso for l1_lambda > 0")
    if data.n == 0:
        raise ValueError("cannot fit an empty dataset")

    counts = data.column_counts()
    active = np.flatnonzero(counts > 0)
    no_data = tuple(int(c) for c in np.flatnonzero(counts == 0))
    y = data.response.astype(float)
    # X'WX = Xa' (W Xa): slice and transpose once, rescale a copy per iteration
    X_active = data.X[:, active] if no_data else data.X
    X_active_t = X_active.T.tocsr()
    weighted = X_active.copy()
    row_nnz = np.diff(X_active.indptr)

    beta = np.zeros(data.p)
    deviance = -2.0 * log_likelihood(beta, data)
    path = [deviance]
    stabilized = False
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        eta = np.clip(data.linear_predictor(beta), -opts.eta_cap, opts.eta_cap)
        pi = sigmoid(eta)
        np.multiply(X_active.data, np.repeat(pi * (1.0 - pi), row_nnz), out=weighted.data)
        g = X_active_t @ (y - pi)
        hessian = (X_active_t @ weighted).toarray()

        try:
            factor = scipy.linalg.cho_factor(hessian)
        except scipy.linalg.LinAlgError:
            stabilized = True
            try:
                factor = scipy.linalg.cho_factor(
                    hessian + LAST_RESORT_RIDGE * np.eye(len(active))
                )
            except scipy.linalg.LinAlgError:
                raise FitError(
                    "weighted normal equations singular even after ridge",
                    _make_result(beta, data, iterations, False, opts, stabilized,
                                 no_data, path=path),
                ) from None
        direction = np.zeros(data.p)
        direction[active] = scipy.linalg.cho_solve(factor, g)

        step = 1.0
        new_beta = beta
        new_deviance = deviance
        accepted = False
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + step * direction
            candidate_dev = -2.0 * log_likelihood(candidate, data)
            if candidate_dev <= deviance:
                new_beta, new_deviance, accepted = candidate, candidate_dev, True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent available at float precision
            break

        rel_change = abs(deviance - new_deviance) / max(deviance, 1e-10)
        beta, deviance = new_beta, new_deviance
        path.append(deviance)
        if rel_change < opts.tolerance:
            converged = True
            break

    return _make_result(beta, data, iterations, converged, opts, stabilized, no_data,
                        path=path)


def _make_result(beta, data, iterations, converged, opts, stabilized, no_data,
                 l1_lambda: float = 0.0, path=()) -> FitResult:
    ll = log_likelihood(beta, data)
    return FitResult(
        coefficients=beta,
        log_likelihood=ll,
        deviance=-2.0 * ll,
        iterations=iterations,
        converged=converged,
        l1_lambda=l1_lambda,
        index=data.index,
        stabilized=stabilized,
        eta_cap=opts.eta_cap,
        no_data_columns=no_data,
        deviance_path=tuple(path),
    )


def fit_lasso(
    data: EncodedDataset,
    opts: FitOptions,
    *,
    warm_start: np.ndarray | None = None,
) -> FitResult:
    """L1-penalized fit maximizing log_likelihood - lambda * sum|beta_j|.

    Cyclic coordinate descent with soft thresholding runs on the
    weighted quadratic approximation inside each reweighting, with
    active-set sweeps between full passes.  ``warm_start`` seeds the
    coefficients, typically with the solution at a neighbouring penalty.
    The index is typically built without anchoring for this fit, since
    the penalty itself makes the problem identifiable.
    """
    if data.n == 0:
        raise ValueError("cannot fit an empty dataset")
    lam = opts.l1_lambda
    by_column = data.X.tocsc()
    # native-width row indices: the sweep below indexes with them column by column
    rows_flat = by_column.indices.astype(np.intp)
    signs_flat, bounds = by_column.data, by_column.indptr
    counts = np.diff(bounds)
    active_cols = np.flatnonzero(counts > 0)
    no_data = tuple(int(c) for c in np.flatnonzero(counts == 0))
    y = data.response.astype(float)
    touched = data.X.multiply(data.X).T

    beta = np.zeros(data.p) if warm_start is None else warm_start.copy()
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        eta = data.linear_predictor(beta)
        eta_c = np.clip(eta, -opts.eta_cap, opts.eta_cap)
        pi = sigmoid(eta_c)
        w = pi * (1.0 - pi)
        # working residual of the weighted least-squares problem
        resid = (y - pi) / w + (eta_c - eta)
        col_w = touched @ w

        def sweep(columns: np.ndarray) -> float:
            max_delta = 0.0
            for j in columns:
                a = col_w[j]
                if a <= 0.0:
                    continue
                sl = slice(bounds[j], bounds[j + 1])
                rj, sj = rows_flat[sl], signs_flat[sl]
                u = np.sum(w[rj] * sj * resid[rj]) + a * beta[j]
                bj = math.copysign(max(abs(u) - lam, 0.0), u) / a
                delta = bj - beta[j]
                if delta != 0.0:
                    beta[j] = bj
                    resid[rj] -= sj * delta
                    max_delta = max(max_delta, abs(delta))
            return max_delta

        outer_delta = sweep(active_cols)
        for _ in range(1000):
            nonzero = active_cols[beta[active_cols] != 0.0]
            if sweep(nonzero) < 0.25 * opts.tolerance:
                break
        full_delta = sweep(active_cols)
        if max(outer_delta, full_delta) < opts.tolerance:
            converged = True
            break

    return _make_result(beta, data, iterations, converged, opts, False, no_data,
                        l1_lambda=lam)


def lambda_max(data: EncodedDataset) -> float:
    """Smallest penalty for which the all-zero vector is optimal."""
    return float(np.abs(score(np.zeros(data.p), data)).max())


def default_lambda_grid(data: EncodedDataset, num: int = 50,
                        ratio: float = 1e-3) -> np.ndarray:
    """Descending log-spaced grid from lambda_max down by ``ratio``."""
    top = max(lambda_max(data), 1e-12)
    return np.geomspace(top, top * ratio, num)


def _accuracy(beta: np.ndarray, data: EncodedDataset, eta_cap: float) -> float:
    """Fraction of rows predicted correctly at the 0.5 threshold.

    Ties (probability exactly 0.5) predict that player1 wins.
    """
    pi = sigmoid(np.clip(data.linear_predictor(beta), -eta_cap, eta_cap))
    predicted = (pi >= 0.5).astype(np.int8)
    return float(np.mean(predicted == data.response))


def select_lambda_cv(
    data: EncodedDataset,
    k: int,
    grid,
    seed: int,
    opts: FitOptions = FitOptions(),
) -> float:
    """Pick the penalty maximizing mean held-out accuracy over k folds.

    Ties go to the larger penalty.  Deterministic given ``seed``.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    grid = np.sort(np.asarray(list(grid), dtype=float))[::-1]
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(data.n), k)

    acc = np.zeros((grid.size, k))
    for fi, fold in enumerate(folds):
        mask = np.ones(data.n, dtype=bool)
        mask[fold] = False
        train = data.subset(np.flatnonzero(mask))
        test = data.subset(fold)
        warm = None
        for li, lam in enumerate(grid):
            fit = fit_lasso(train, replace(opts, l1_lambda=float(lam)),
                            warm_start=warm)
            warm = fit.coefficients
            acc[li, fi] = _accuracy(fit.coefficients, test, opts.eta_cap)
    mean_acc = acc.mean(axis=1)
    return float(grid[int(np.argmax(mean_acc))])


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    Evaluates the regularized upper incomplete gamma function
    Q(df/2, x/2).
    """
    if df <= 0 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(scipy.special.gammaincc(df / 2.0, x / 2.0))


def fit_to_obj(fit: FitResult) -> dict:
    """JSON-ready representation: symbol -> estimate plus fit metadata."""
    idx = fit.index
    no_data = set(fit.no_data_columns)
    return {
        "players": [
            {"player": player, "estimate": float(fit.coefficients[col])}
            for player, col in sorted(idx.player_columns.items())
        ],
        "anchored_players": sorted(idx.anchored_players),
        "matchups": [
            {
                "map": m,
                "race1": pair[0],
                "race2": pair[1],
                "estimate": float(fit.coefficients[col]),
                "observed": col not in no_data,
            }
            for (m, pair), col in sorted(idx.matchup_columns.items(),
                                         key=lambda kv: kv[1])
        ],
        "fit": {
            "log_likelihood": fit.log_likelihood,
            "deviance": fit.deviance,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "stabilized": fit.stabilized,
            "l1_lambda": fit.l1_lambda,
            "eta_cap": fit.eta_cap,
            "p": idx.p,
            "p_effective": fit.p_effective,
        },
        "index": index_to_obj(idx),
    }


def fit_from_obj(obj: dict) -> FitResult:
    idx = index_from_obj(obj["index"])
    beta = np.zeros(idx.p)
    for entry in obj["players"]:
        beta[idx.player_columns[entry["player"]]] = entry["estimate"]
    no_data = []
    for entry in obj["matchups"]:
        col = idx.matchup_column(entry["map"], (entry["race1"], entry["race2"]))
        beta[col] = entry["estimate"]
        if not entry["observed"]:
            no_data.append(col)
    meta = obj["fit"]
    return FitResult(
        coefficients=beta,
        log_likelihood=meta["log_likelihood"],
        deviance=meta["deviance"],
        iterations=meta["iterations"],
        converged=meta["converged"],
        l1_lambda=meta["l1_lambda"],
        index=idx,
        stabilized=meta["stabilized"],
        eta_cap=meta["eta_cap"],
        no_data_columns=tuple(sorted(no_data)),
    )
