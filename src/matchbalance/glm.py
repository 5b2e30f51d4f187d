"""Binomial-logit fitting by iteratively reweighted least squares.

The unpenalized path is Newton-Raphson with step halving on the
deviance.  Each Newton direction solves the sparse weighted normal
equations X'WX d = X'(y - pi) by Jacobi-preconditioned conjugate
gradients, so the fit never forms a dense p x p matrix and its memory
grows with the number of games.  The L1 fit runs the same loop as
proximal Newton: soft-thresholded steps solve each direction, so
exactly-zero coefficients are representable.  Matchup columns with no
observations are frozen at their start value and excluded from the
solve (they are reported as having no data rather than dropped from
the index).

When the active design is rank-deficient, which the unpenalized fit
tests once from the design's structure (``design._nullity``), every
Newton system has its diagonal scaled by ``1 + LAST_RESORT_RIDGE``.
This ridge is relative to the Jacobi diagonal, so it stays small beside
weights capped near zero.  It picks the unidentified directions, and
the fit's ``stabilized`` flag reports exactly this rank deficiency.

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
from .jsonio import _NUMBER, _check_shape

LAST_RESORT_RIDGE = 1e-10
MAX_STEP_HALVINGS = 30
_SOLVE_TOLERANCE = 1e-10  # CG: residual relative to |rhs|; prox: largest move
_SOLVE_STEPS_PER_COLUMN = 10


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
    return _newton(data, opts, np.zeros(data.p), penalized=False)


def fit_lasso(data: EncodedDataset, opts: FitOptions, *,
              warm_start: np.ndarray | None = None) -> FitResult:
    """L1-penalized fit maximizing log_likelihood - lambda * sum|beta_j|.

    Proximal Newton: ``_prox`` solves each direction on the quadratic
    model, and the fit stops once no coefficient moves by
    ``opts.tolerance``.  ``warm_start`` (copied) seeds the coefficients,
    typically with the solution at a neighbouring penalty.  The index is
    typically built without anchoring, since the penalty itself makes
    the problem identifiable.
    """
    start = np.zeros(data.p) if warm_start is None else np.array(warm_start, dtype=float)
    return _newton(data, opts, start, penalized=True)


def _newton(data: EncodedDataset, opts: FitOptions, beta: np.ndarray,
            penalized: bool) -> FitResult:
    """Newton loop of both fits from ``beta``; step halving runs on
    deviance + 2 lambda |beta|_1, which is the deviance for ``fit_irls``."""
    if data.n == 0:
        raise ValueError("cannot fit an empty dataset")
    lam = float(opts.l1_lambda)
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

    eta = data.linear_predictor(beta)
    deviance = 2.0 * _log_loss(eta, flip)
    objective = deviance + 2.0 * lam * float(np.abs(beta).sum())
    path = [deviance]
    stabilized = converged = False
    solved = True
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        # chance of the outcome not observed: 1 - pi or pi; it, and so the
        # whole iteration, is unchanged when both sides of every game swap
        miss = sigmoid(flip * np.clip(eta, -opts.eta_cap, opts.eta_cap))
        np.multiply(X_active.data, np.repeat(miss * (1.0 - miss), row_nnz),
                    out=weighted.data)
        g = -(X_active_t @ (flip * miss))
        hessian = X_active_t @ weighted
        if penalized:
            solution = _prox(hessian, g, beta[active], lam)
        else:
            if iterations == 1:
                # every weight is 1/4 at beta = 0, so this X'WX is X'X / 4
                stabilized = _nullity(X_active, X_active_t, players, hessian) > 0
            if stabilized:
                hessian.setdiag(hessian.diagonal() * (1.0 + LAST_RESORT_RIDGE))
            solution, solved = _cg(hessian, g)
            if not solved:
                break
        direction = np.zeros(data.p)
        direction[active] = solution

        step = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + step * direction
            candidate_eta = data.linear_predictor(candidate)
            candidate_dev = 2.0 * _log_loss(candidate_eta, flip)
            candidate_obj = candidate_dev + 2.0 * lam * float(np.abs(candidate).sum())
            if candidate_obj <= objective:
                break
            step *= 0.5
        else:
            converged = True  # no descent available at float precision
            break

        change = (float(np.abs(candidate - beta).max(initial=0.0)) if penalized
                  else abs(objective - candidate_obj) / max(objective, 1e-10))
        beta, eta = candidate, candidate_eta
        deviance, objective = candidate_dev, candidate_obj
        path.append(deviance)
        if change < opts.tolerance:
            converged = True
            break

    result = FitResult(
        coefficients=beta,
        log_likelihood=-deviance / 2.0,
        deviance=deviance,
        iterations=iterations,
        converged=converged,
        l1_lambda=lam,
        index=data.index,
        stabilized=stabilized,
        eta_cap=opts.eta_cap,
        no_data_columns=no_data,
        deviance_path=tuple(path),
    )
    if not solved:
        raise FitError("conjugate gradients did not solve the Newton system", result)
    return result


def _cg(matrix, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve matrix x = rhs by Jacobi-preconditioned conjugate gradients.

    Stops once the residual is within ``_SOLVE_TOLERANCE`` of |rhs|, or
    after ``_SOLVE_STEPS_PER_COLUMN`` iterations per unknown; returns
    the iterate and whether it met the bound.  ``matrix`` is symmetric
    positive semidefinite with a positive diagonal.
    """
    inv_diag = 1.0 / matrix.diagonal()
    bound = _SOLVE_TOLERANCE ** 2 * (rhs @ rhs)  # on the squared residual norm
    x = np.zeros_like(rhs)
    r = rhs.copy()
    if r @ r <= bound:
        return x, True
    z = inv_diag * r
    d = z.copy()
    rz = r @ z
    for _ in range(_SOLVE_STEPS_PER_COLUMN * rhs.size):
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


def _prox(hessian, g: np.ndarray, x: np.ndarray, lam: float) -> np.ndarray:
    """Proximal Newton step z - x: z minimizes (z-x)'H(z-x)/2 - g'(z-x) + lam |z|_1.

    Soft-thresholded gradient steps (FISTA, with adaptive restart) scaled
    by H's absolute row sums, a diagonal that majorizes H, so zeros are
    exact.  Stops once no coordinate moves by more than ``_SOLVE_TOLERANCE``,
    or after ``_SOLVE_STEPS_PER_COLUMN`` steps per unknown.
    """
    scale = 1.0 / np.asarray(abs(hessian).sum(axis=1)).ravel()
    threshold = lam * scale
    offset = hessian @ x + g  # the model's gradient at y is H y - offset
    z = y = x
    t = 1.0
    for _ in range(_SOLVE_STEPS_PER_COLUMN * x.size):
        u = y - scale * (hessian @ y - offset)
        z_next = np.sign(u) * np.maximum(np.abs(u) - threshold, 0.0)
        move = z_next - z
        if (y - z_next) @ (move / scale) > 0:
            t = 1.0  # momentum points uphill: restart
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z_next + ((t - 1.0) / t_next) * move
        z, t = z_next, t_next
        if np.abs(move).max() <= _SOLVE_TOLERANCE:
            break
    return z - x


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

    Returns (training rows, test rows) per fold, both in row order;
    every test fold holds at least one row.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need at least {k} records for {k}-fold CV")
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


_FIT_SHAPE = {  # what fit_from_obj reads, in the order it checks it
    "players": [{"player": str, "estimate": _NUMBER}],
    "matchups": [{"map": str, "race1": str, "race2": str, "estimate": _NUMBER,
                  "observed": bool}],
    "fit": {"log_likelihood": _NUMBER, "deviance": _NUMBER, "iterations": int,
            "converged": bool, "stabilized": bool, "l1_lambda": _NUMBER,
            "eta_cap": _NUMBER, "p": int, "p_effective": int},
    "anchored_players": [str],
    "components": [[str]],
}


def fit_from_obj(obj) -> FitResult:
    """Rebuild the fit ``fit_to_obj`` represented, index included.

    Raises ValueError naming the first missing or mistyped key, or
    saying that the players and matchups are not in column layout.
    """
    _check_shape(obj, _FIT_SHAPE)
    players, matchups, meta = obj["players"], obj["matchups"], obj["fit"]
    idx = _layout([e["player"] for e in players], obj["anchored_players"],
                  [e["map"] for e in matchups[::3]], obj["components"])
    layout = [(e["map"], (e["race1"], e["race2"])) for e in matchups]
    if len(idx.player_columns) != len(players) or layout != list(idx.matchup_columns):
        raise ValueError("players and matchups are not in column layout")
    fit = FitResult(
        coefficients=np.array([e["estimate"] for e in players + matchups], float),
        log_likelihood=meta["log_likelihood"],
        deviance=meta["deviance"],
        iterations=meta["iterations"],
        converged=meta["converged"],
        l1_lambda=meta["l1_lambda"],
        index=idx,
        stabilized=meta["stabilized"],
        eta_cap=meta["eta_cap"],
        no_data_columns=tuple(len(players) + i for i, e in enumerate(matchups)
                              if not e["observed"]),
    )
    for key, value in (("p", idx.p), ("p_effective", fit.p_effective)):
        if meta[key] != value:
            raise ValueError(f"key {key!r} is {meta[key]}, but the columns give {value}")
    return fit
