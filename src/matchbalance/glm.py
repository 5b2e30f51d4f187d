"""Binomial-logit fitting by iteratively reweighted least squares.

The unpenalized path is Newton-Raphson with step halving on the
deviance.  Each Newton direction solves the sparse weighted normal
equations X'WX d = X'(y - pi) by Jacobi-preconditioned conjugate
gradients, so the fit never forms a dense p x p matrix and its memory
grows with the number of games.  The L1 path runs cyclic coordinate
descent with soft thresholding inside each reweighting, so
exactly-zero coefficients are representable.  Matchup columns with no
observations are frozen at zero and excluded from the solve (they are
reported as having no data rather than dropped from the index).

When the active design is rank-deficient, which the fit tests once
from the design's structure (``design._nullity``), every Newton system
has its diagonal scaled by ``1 + LAST_RESORT_RIDGE``.  This ridge is
relative to the Jacobi diagonal, so it stays small beside weights
capped near zero.  It picks the unidentified directions, and the fit's
``stabilized`` flag reports exactly this rank deficiency.

Linear predictors are capped at ``eta_cap`` when computing weights and
fitted probabilities, which keeps the weighted normal equations finite
under quasi-separation (undefeated players are common in this data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.special

from .design import EncodedDataset, ParameterIndex, _layout, _nullity

LAST_RESORT_RIDGE = 1e-10
MAX_STEP_HALVINGS = 30
_CG_TOLERANCE = 1e-10  # residual bound, relative to the right-hand side
_CG_ITERATIONS_PER_COLUMN = 10


def sigmoid(eta):
    """Logistic function 1/(1+exp(-eta)), stable for large |eta|.

    Accepts scalars or arrays and returns a float for a scalar;
    satisfies sigmoid(-eta) == 1 - sigmoid(eta) up to one ulp.
    """
    out = scipy.special.expit(np.asarray(eta, dtype=float))
    return float(out) if out.ndim == 0 else out


def log_likelihood(beta: np.ndarray, data: EncodedDataset) -> float:
    """Bernoulli log-likelihood sum_i [y_i log pi_i + (1-y_i) log(1-pi_i)].

    Computed as -log(1+exp(f*eta)) with f = 1 - 2y via logaddexp, which
    stays finite for any eta; swapping the sides of a game negates both
    f and eta, so its term does not change in any bit.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    return -_log_loss(data.linear_predictor(beta), _flip(data))


def _flip(data: EncodedDataset) -> np.ndarray:
    """f = 1 - 2y per row: -1 when player1 won, +1 when player2 won."""
    return 1.0 - 2.0 * data.response


def _log_loss(eta: np.ndarray, flip: np.ndarray) -> float:
    """Minus the log-likelihood at linear predictors eta: sum_i log(1 + exp(f_i eta_i))."""
    return float(np.sum(np.logaddexp(0.0, flip * eta)))


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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if not 0 < self.eta_cap < math.inf:
            raise ValueError(f"eta_cap must be finite and > 0, got {self.eta_cap}")
        if not 0 <= self.l1_lambda < math.inf:
            raise ValueError(f"l1_lambda must be finite and >= 0, got {self.l1_lambda}")


@dataclass(eq=False)
class FitResult:
    """Fitted coefficient vector plus fit metadata.

    Anchored players own no column, so their coefficients are
    implicitly zero.  ``no_data_columns`` lists matchup columns that
    had no observations and were frozen at zero.  ``stabilized`` means
    the active design is structurally rank-deficient, so every Newton
    system's diagonal was scaled by ``1 + LAST_RESORT_RIDGE`` and that
    relative ridge chose the unidentified directions.
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

    Each direction solves X'WX d = X'(y - pi) by conjugate gradients
    on the sparse X'WX.  Stops when the relative deviance change drops
    below ``opts.tolerance`` or after ``opts.max_iterations``; accepted
    steps never increase the deviance.
    """
    if opts.l1_lambda != 0:
        raise ValueError("fit_irls is unpenalized; use fit_lasso for l1_lambda > 0")
    if data.n == 0:
        raise ValueError("cannot fit an empty dataset")

    counts = data.column_counts()
    active = np.flatnonzero(counts > 0)
    no_data = tuple(int(c) for c in np.flatnonzero(counts == 0))
    players = int(np.searchsorted(active, len(data.index.player_columns)))
    flip = _flip(data)
    # X'WX = Xa' (W Xa): slice and transpose once, rescale a copy per iteration
    X_active = data.X[:, active] if no_data else data.X
    X_active_t = X_active.T.tocsr()
    weighted = X_active.copy()
    row_nnz = np.diff(X_active.indptr)

    beta = np.zeros(data.p)
    eta = data.linear_predictor(beta)
    deviance = 2.0 * _log_loss(eta, flip)
    path = [deviance]
    stabilized = False
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        # chance of the outcome not observed: 1 - pi or pi; it, and so the
        # whole iteration, is unchanged when both sides of every game swap
        miss = sigmoid(flip * np.clip(eta, -opts.eta_cap, opts.eta_cap))
        np.multiply(X_active.data, np.repeat(miss * (1.0 - miss), row_nnz),
                    out=weighted.data)
        g = -(X_active_t @ (flip * miss))
        hessian = X_active_t @ weighted
        if iterations == 1:
            # every weight is 1/4 at beta = 0, so this X'WX is X'X / 4
            stabilized = _nullity(X_active, X_active_t, players, hessian) > 0
        if stabilized:
            hessian.setdiag(hessian.diagonal() * (1.0 + LAST_RESORT_RIDGE))
        solution, solved = _cg(hessian, g)
        if not solved:
            raise FitError(
                "conjugate gradients did not solve the Newton system",
                _make_result(beta, data, iterations, False, opts, stabilized,
                             no_data, deviance, path=path),
            )
        direction = np.zeros(data.p)
        direction[active] = solution

        step = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + step * direction
            candidate_eta = data.linear_predictor(candidate)
            candidate_dev = 2.0 * _log_loss(candidate_eta, flip)
            if candidate_dev <= deviance:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent available at float precision
            break

        rel_change = abs(deviance - candidate_dev) / max(deviance, 1e-10)
        beta, eta, deviance = candidate, candidate_eta, candidate_dev
        path.append(deviance)
        if rel_change < opts.tolerance:
            converged = True
            break

    return _make_result(beta, data, iterations, converged, opts, stabilized, no_data,
                        deviance, path=path)


def _cg(matrix, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve matrix x = rhs by Jacobi-preconditioned conjugate gradients.

    Stops once the residual is within ``_CG_TOLERANCE`` of |rhs|, or
    after ``_CG_ITERATIONS_PER_COLUMN`` iterations per unknown; returns
    the iterate and whether it met the bound.  ``matrix`` is symmetric
    positive semidefinite with a positive diagonal.
    """
    inv_diag = 1.0 / matrix.diagonal()
    bound = _CG_TOLERANCE ** 2 * (rhs @ rhs)  # on the squared residual norm
    x = np.zeros_like(rhs)
    r = rhs.copy()
    if r @ r <= bound:
        return x, True
    z = inv_diag * r
    d = z.copy()
    rz = r @ z
    for _ in range(_CG_ITERATIONS_PER_COLUMN * rhs.size):
        md = matrix @ d
        curvature = d @ md
        if not curvature > 0:
            break
        alpha = rz / curvature
        x += alpha * d
        r -= alpha * md
        if r @ r <= bound:
            return x, True
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = r @ z, rz
        d *= rz / rz_old
        d += z
    return x, False


def _make_result(beta, data, iterations, converged, opts, stabilized, no_data,
                 deviance: float, l1_lambda: float = 0.0, path=()) -> FitResult:
    """``deviance`` is that of ``beta`` on ``data``, as the fitter last computed it."""
    return FitResult(
        coefficients=beta,
        log_likelihood=-deviance / 2.0,
        deviance=deviance,
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

    deviance = 2.0 * _log_loss(data.linear_predictor(beta), _flip(data))
    return _make_result(beta, data, iterations, converged, opts, False, no_data,
                        deviance, l1_lambda=lam)


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


def _cv_folds(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded split of rows 0..n-1 into k near-equal random folds.

    Returns (training rows, test rows) per fold, both in row order.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    rows = np.arange(n)
    return [(np.delete(rows, fold), np.sort(fold))
            for fold in np.array_split(np.random.default_rng(seed).permutation(n), k)]


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
    folds = _cv_folds(data.n, k, seed)
    grid = np.sort(np.asarray(list(grid), dtype=float))[::-1]
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")

    acc = np.zeros((grid.size, k))
    for fi, (train_rows, test_rows) in enumerate(folds):
        train = data.subset(train_rows)
        test = data.subset(test_rows)
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
    """JSON-ready representation: symbol -> estimate plus fit metadata.

    Players and matchups come in column order, so ``fit_from_obj``
    rebuilds the index from them, the anchors and the components."""
    idx = fit.index
    no_data = set(fit.no_data_columns)
    return {
        "players": [
            {"player": player, "estimate": float(fit.coefficients[col])}
            for player, col in idx.player_columns.items()
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
            for (m, pair), col in idx.matchup_columns.items()
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
        "components": [sorted(c) for c in idx.components],
    }


def _field(obj, key: str, kind=(int, float)):
    """``obj[key]``, which must exist and be a ``kind`` (by default a number);
    a ValueError names the key otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"key {key!r} holds a {type(value).__name__}")
    return value


def _names(values, key: str) -> list[str]:
    if isinstance(values, list) and all(isinstance(v, str) for v in values):
        return values
    raise ValueError(f"key {key!r} holds something other than a list of names")


def fit_from_obj(obj) -> FitResult:
    """Rebuild the fit ``fit_to_obj`` represented, index included.

    Raises ValueError naming the first missing or mistyped key, or
    saying that the players and matchups are not in column layout.
    """
    players = _field(obj, "players", list)
    matchups = _field(obj, "matchups", list)
    meta = _field(obj, "fit", dict)
    idx = _layout([_field(e, "player", str) for e in players],
                  _names(_field(obj, "anchored_players", list), "anchored_players"),
                  [_field(e, "map", str) for e in matchups[::3]],
                  [_names(c, "components") for c in _field(obj, "components", list)])
    layout = [(_field(e, "map", str), (_field(e, "race1", str), _field(e, "race2", str)))
              for e in matchups]
    if len(idx.player_columns) != len(players) or layout != list(idx.matchup_columns):
        raise ValueError("players and matchups are not in column layout")
    fit = FitResult(
        coefficients=np.array([_field(e, "estimate") for e in players + matchups], float),
        log_likelihood=_field(meta, "log_likelihood"),
        deviance=_field(meta, "deviance"),
        iterations=_field(meta, "iterations", int),
        converged=_field(meta, "converged", bool),
        l1_lambda=_field(meta, "l1_lambda"),
        index=idx,
        stabilized=_field(meta, "stabilized", bool),
        eta_cap=_field(meta, "eta_cap"),
        no_data_columns=tuple(len(players) + i for i, e in enumerate(matchups)
                              if not _field(e, "observed", bool)),
    )
    for key, value in (("p", idx.p), ("p_effective", fit.p_effective)):
        if _field(meta, key, int) != value:
            raise ValueError(f"key {key!r} is {meta[key]}, but the columns give {value}")
    return fit
