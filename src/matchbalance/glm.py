"""Binomial-logit fitting by iteratively reweighted least squares.

The unpenalized path is Newton-Raphson with step halving on the
deviance.  It runs on the design's distinct rows up to sign, each
oriented so that its first entry is +1 and carrying its game count m
and the number k of those games its oriented player1 won: the binomial
form of the same Bernoulli likelihood, whose work per iteration grows
with the distinct rows, not with the games.  Each Newton direction
solves the sparse weighted normal equations X'WX d = X'(k - m pi),
W = diag(m pi (1 - pi)), by Jacobi-preconditioned conjugate gradients,
so the fit never forms a dense p x p matrix.  The solve is inexact
Newton (Dembo, Eisenstat & Steihaug 1982): conjugate gradients stop at
a residual of sqrt(tolerance) relative to the right-hand side, while
the fit stops at a relative deviance change of ``tolerance``; on the
benchmark's leagues that takes as many Newton steps as a solve to
1e-10 does.  The residual, the weights and the deviance each take one
exp(-|eta|) per row.  The L1 fit runs the same loop as proximal
Newton: soft-thresholded steps solve each direction, so exactly-zero
coefficients are representable.  Matchup columns with no
observations are frozen at their start value and excluded from the
solve (they are reported as having no data rather than dropped from
the index).

When the active design is rank-deficient, which the unpenalized fit
tests once from the design's structure (``design._nullity``, one call
for every block of a stack), every
Newton system has its diagonal scaled by ``1 + LAST_RESORT_RIDGE``.
This ridge is relative to the Jacobi diagonal, so it stays small beside
weights capped near zero.  It picks the unidentified directions, and
the fit's ``stabilized`` flag reports exactly this rank deficiency.

Linear predictors are clipped to +-``_ETA_CAP`` (30) when computing
weights and fitted probabilities, which keeps the weighted normal
equations finite under quasi-separation (undefeated players are common
in this data).  The cap is a fixed constant, not an option.  It still
binds where a player won or lost every game, or a matchup cell's games
all went one way: those estimates have no finite maximum, and the cap
can go once the fit detects them and leaves them out.

The loop fits a stack of designs at once (``_fit_stacks``; bootstrap
draws and cross-validation folds are fitted so, and a single fit is a
stack of one).  Each design's distinct rows, restricted to its active
columns, sit block-diagonally, so one sparse product assembles every
block's X'WX and one matrix-vector product per conjugate-gradient step
serves every block.  Every scalar of a fit (the CG step sizes and
residual bound, the Newton step and its halving, the deviance and the
stopping test) is computed per block by segment reductions
(``np.add.reduceat``), and a block that finishes leaves the stack, so a
design's fit is bitwise the same alone or in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
import scipy.special
from scipy.sparse import _sparsetools

from .data import RACES
from .design import (EncodedDataset, ParameterIndex, _layout, _nullity,
                     canonical_orientation)
from .jsonio import _NUMBER, _check_shape

LAST_RESORT_RIDGE = 1e-10
MAX_STEP_HALVINGS = 30
_SOLVE_TOLERANCE = 1e-10  # prox: the largest move at which it stops
_SOLVE_STEPS_PER_COLUMN = 10
_STACK_ROWS = 1 << 13  # distinct rows at which a stack of fits closes
_ETA_CAP = 30.0  # |eta| bound on the weights and fitted probabilities


def sigmoid(eta):
    """Logistic function 1/(1+exp(-eta)), stable for large |eta|.

    Accepts scalars or arrays and returns a float for a scalar;
    satisfies sigmoid(-eta) == 1 - sigmoid(eta) up to one ulp.
    """
    if isinstance(eta, float):  # a ufunc takes a float without a 0-d array
        return float(scipy.special.expit(eta))
    out = scipy.special.expit(np.asarray(eta, dtype=float))
    return float(out) if out.ndim == 0 else out


def log_likelihood(beta: np.ndarray, data: EncodedDataset) -> float:
    """Bernoulli log-likelihood sum_i [y_i log pi_i + (1-y_i) log(1-pi_i)].

    Summed over the design's distinct rows with their game and win
    counts (``_log_loss``), so it stays finite for any eta and does not
    change in any bit when the sides of a game swap or the games are
    reordered.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    return -float(_log_loss(data.X @ beta, data.games, data.wins, np.zeros(1, np.intp))[0])


def _log_loss(eta: np.ndarray, games: np.ndarray, wins: np.ndarray,
              starts: np.ndarray) -> np.ndarray:
    """Minus the log-likelihood of each block of rows, the blocks starting
    at ``starts``, of rows with linear predictors eta, each won ``wins``
    times in ``games``: sum m log(1 + e^-eta) + (m - k) eta.

    Computed as m log1p(e^-|eta|) + k max(-eta, 0) + (m - k) max(eta, 0),
    one exp per row and every term nonnegative, so a row whose games
    were all won or all lost loses no digits to cancellation.
    """
    return np.add.reduceat(games * np.log1p(np.exp(-np.abs(eta)))
                           + wins * np.maximum(-eta, 0.0)
                           + (games - wins) * np.maximum(eta, 0.0), starts)


def score(beta: np.ndarray, data: EncodedDataset) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - pi), summed as X'(k - m pi)
    over the distinct rows."""
    X = data.X
    return X.T @ _residual(X @ np.asarray(beta, dtype=float), data.games, data.wins)[0]


def _residual(eta: np.ndarray, games: np.ndarray, wins: np.ndarray):
    """(k - m pi, pi (1 - pi)) per row, from one e = exp(-|eta|): the
    likelier side's probability is 1/(1 + e) and the other's e/(1 + e),
    so 1 - pi keeps its digits when a row's outcome is all but certain."""
    e = np.exp(-np.abs(eta))
    # buffers are reused in place: this call is the fit's peak of memory
    near = 1.0 + e
    far = np.divide(e, near, out=e)
    near = np.divide(1.0, near, out=near)
    ahead = eta >= 0.0
    pi, miss = np.where(ahead, near, far), np.where(ahead, far, near)
    variance = np.multiply(near, far, out=near)
    residual = np.multiply(wins, miss, out=miss)
    residual -= np.multiply(games - wins, pi, out=pi)
    return residual, variance


@dataclass(frozen=True)
class FitOptions:
    """Convergence knobs and the L1 penalty for the fitters.

    The cap on |eta| is not among them: it is ``_ETA_CAP``, a fixed
    constant, which stays only while separated players and matchup
    cells are fitted (see the module docstring).
    """

    max_iterations: int = 100
    tolerance: float = 1e-8
    l1_lambda: float = 0.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if not 0 <= self.l1_lambda < math.inf:
            raise ValueError(f"l1_lambda must be finite and >= 0, got {self.l1_lambda}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficient vector plus fit metadata, immutable.

    ``coefficients`` is a read-only float64 copy of the vector given.
    Anchored players own no column, so their coefficients are
    implicitly zero.  ``no_data_columns`` lists the columns that had
    no observations and were frozen at zero: matchup columns with no
    games and, in a bootstrap draw (a subset of the whole dataset's
    design), player columns of players the draw holds no game of.
    ``stabilized`` means the active design is structurally
    rank-deficient, so every Newton system's diagonal was scaled by
    ``1 + LAST_RESORT_RIDGE`` and that relative ridge chose the
    unidentified directions.
    """

    coefficients: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    l1_lambda: float
    index: ParameterIndex
    stabilized: bool = False
    no_data_columns: tuple[int, ...] = ()
    deviance_path: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        coefficients = np.array(self.coefficients, dtype=np.float64)
        coefficients.flags.writeable = False
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def log_likelihood(self) -> float:
        """Bernoulli log-likelihood at the coefficients: -deviance / 2."""
        return -self.deviance / 2.0

    @property
    def p_effective(self) -> int:
        """Number of actively estimated columns."""
        return self.index.p - len(self.no_data_columns)

    @cached_property
    def _lookup(self) -> tuple[dict[str, float], dict[tuple[str, str, str], float]]:
        """Each fitted player's estimate, in column order, and each (map,
        race1, race2)'s signed matchup term, 0.0 for a same-race pair, as
        Python floats: the one place a fit is read by name, built from
        ``coefficients`` at the first read.  Anchored and unknown players
        have no entry."""
        beta = self.coefficients.tolist()
        players = {player: beta[col] for player, col in self.index.player_columns.items()}
        terms = {}
        for race1 in RACES:
            for race2 in RACES:
                pair, sign = canonical_orientation(race1, race2)
                for m in self.index.maps:
                    terms[m, race1, race2] = 0.0 if pair is None else \
                        sign * beta[self.index.matchup_columns[m, pair]]
        return players, terms

    def fitted_probabilities(self, data: EncodedDataset) -> np.ndarray:
        """Per-game win probabilities, in game order, |eta| capped as in the fit."""
        eta = np.clip(data.linear_predictor(self.coefficients), -_ETA_CAP, _ETA_CAP)
        return sigmoid(eta)


class FitError(RuntimeError):
    """Fitting failed; carries the last iterate in ``result``."""

    def __init__(self, message: str, result: FitResult | None = None):
        super().__init__(message)
        self.result = result


def fit_irls(data: EncodedDataset, opts: FitOptions = FitOptions()) -> FitResult:
    """Maximum-likelihood fit via Newton-Raphson with step halving.

    The loop runs on the design's distinct rows with their game and win
    counts, and each direction solves X'WX d = X'(k - m pi) by conjugate
    gradients on the sparse X'WX.  Stops when the relative deviance
    change drops below ``opts.tolerance`` or after
    ``opts.max_iterations``; accepted steps never increase the deviance.
    """
    (fit,) = _fit_stacks([data], opts, lambda data, fit: fit)
    if isinstance(fit, FitError):
        raise fit
    return fit


def _fit_stacks(designs, opts: FitOptions, use) -> list:
    """``use(design, fit)`` for each design of an iterable, in order, where
    fit is ``fit_irls``'s result or its FitError unraised.

    Consecutive designs are fitted together as one stack, which closes
    once its designs reach ``_STACK_ROWS`` distinct rows, and ``use``
    sees a stack's fits before the next design is read: no more than
    one stack's designs are held at a time.  Bootstrap draws and
    cross-validation folds come here as subsets of an encoded design
    (``EncodedDataset.subset``).
    """
    if opts.l1_lambda != 0:
        raise ValueError("fit_irls is unpenalized; use fit_lasso for l1_lambda > 0")
    out, pending, rows = [], [], 0
    for data in designs:
        pending.append(data)
        rows += data.X.shape[0]
        if rows >= _STACK_ROWS:
            out += _fit_pending(pending, opts, use)
            pending, rows, data = [], 0, None  # held by nothing while the next is read
    return out + _fit_pending(pending, opts, use)


def _fit_pending(pending: list, opts: FitOptions, use) -> list:
    """``use`` on each of ``pending``, fitted as one stack."""
    fits = _newton(pending, opts, [np.zeros(data.p) for data in pending], False)
    return [use(data, fit) for data, fit in zip(pending, fits)]


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
    return _newton([data], opts, [start], penalized=True)[0]


class _Block:
    """One design of a stack: its distinct rows restricted to the columns
    that hold data."""

    def __init__(self, data: EncodedDataset):
        if data.n == 0:
            raise ValueError("cannot fit an empty dataset")
        self.data = data
        X, self.games, self.wins = data.X, data.games, data.wins
        # a column holds data where one of the distinct rows has an entry
        counts = np.bincount(X.indices, minlength=data.p)
        self.active = np.flatnonzero(counts > 0)
        self.no_data = tuple(int(c) for c in np.flatnonzero(counts == 0))
        self.players = int(np.searchsorted(self.active, len(data.index.player_columns)))
        self.X = X[:, self.active] if self.no_data else X


class _Stack:
    """Blocks placed block-diagonally: their active columns side by side,
    their rows one after another, so that each sparse product or
    elementwise operation acts on every block at once and no block's
    numbers touch another's.  Coefficient vectors hold all ``p`` columns
    of each block, and ``active`` picks the active ones."""

    def __init__(self, blocks: list[_Block]):
        self.blocks = blocks
        self.row_sizes = np.array([b.X.shape[0] for b in blocks])
        self.p = np.array([b.data.p for b in blocks])
        self.sizes = np.array([b.active.size for b in blocks])  # active columns
        self.rows, self.columns = _starts(self.row_sizes), _starts(self.p)
        self.ends = _segment_ends(self.sizes)
        # the same for two such vectors, each padded, one after the other
        self.ends_twice = np.append(self.ends, self.ends + self.sizes.sum() + 1)
        self.active = np.concatenate(
            [b.active + start for b, start in zip(blocks, self.columns.tolist())])
        self.X = _block_diagonal([b.X for b in blocks])
        self.Xt = self.X.T.tocsr()
        self.weighted = self.X.copy()
        self.row_nnz = np.diff(self.X.indptr)
        # X'WX has X'X's pattern whatever W, so its size bound is found once
        n = self.Xt.shape[0]
        self.gram_nnz = _sparsetools.csr_matmat_maxnnz(
            n, n, self.Xt.indptr, self.Xt.indices, self.X.indptr, self.X.indices)
        if len(blocks) == 1:  # a block's own vectors, not copies
            self.games, self.wins = blocks[0].games, blocks[0].wins
        else:
            self.games = np.concatenate([b.games for b in blocks])
            self.wins = np.concatenate([b.wins for b in blocks])

    def gram(self) -> scipy.sparse.csr_array:
        """X'WX for the current ``weighted`` = WX, by the kernel behind
        ``Xt @ weighted`` with its size bound from ``gram_nnz``."""
        n = self.Xt.shape[0]
        indptr = np.empty(n + 1, self.Xt.indptr.dtype)
        indices = np.empty(self.gram_nnz, indptr.dtype)
        data = np.empty(self.gram_nnz)
        _sparsetools.csr_matmat(n, n, self.Xt.indptr, self.Xt.indices, self.Xt.data,
                                self.weighted.indptr, self.weighted.indices,
                                self.weighted.data, indptr, indices, data)
        nnz = indptr[-1]  # exact zeros are left out, as ``@`` leaves them
        return scipy.sparse.csr_array((data[:nnz], indices[:nnz], indptr), shape=(n, n))

    def spread(self, values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Each block's value repeated over its segment of the given sizes;
        one block's value as it is, to broadcast."""
        return values if len(self.blocks) == 1 else values.repeat(sizes)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Start of each of consecutive segments of the given sizes."""
    return np.cumsum(sizes) - sizes


def _segment_ends(sizes: np.ndarray) -> np.ndarray:
    """``np.add.reduceat`` indices for per-block sums of a vector made of
    blocks of the given sizes and one trailing 0.

    Each block contributes its start and end, so every other result is a
    block's sum; an empty block starts and ends at the 0, which a plain
    list of starts would give the next block's first element instead."""
    ends = np.cumsum(sizes)
    pad = ends[-1]
    return np.stack([np.where(sizes > 0, ends - sizes, pad),
                     np.where(sizes > 0, ends, pad)], axis=1).ravel()


def _block_diagonal(blocks: list) -> scipy.sparse.csr_array:
    """The CSR matrices ``blocks`` placed on a diagonal, in order."""
    if len(blocks) == 1:
        return blocks[0]
    column = nnz = 0
    indices, indptr = [], []
    for b in blocks:
        indices.append(b.indices + column)
        indptr.append(b.indptr[:-1] + nnz)
        column, nnz = column + b.shape[1], nnz + b.nnz
    indptr.append(np.array([nnz], indptr[0].dtype))
    return scipy.sparse.csr_array(
        (np.concatenate([b.data for b in blocks]), np.concatenate(indices),
         np.concatenate(indptr)), shape=(sum(b.shape[0] for b in blocks), column))


def _newton(designs: list[EncodedDataset], opts: FitOptions, starts: list[np.ndarray],
            penalized: bool) -> list:
    """Newton loop of both fits, for a stack of designs from their ``starts``.

    Returns each design's FitResult or, where conjugate gradients failed,
    its FitError (returned, not raised).  Step halving runs per design on
    deviance + 2 lambda |beta|_1, which is the deviance for ``fit_irls``.
    Every number of a design comes from operations per row, per column or
    per design (``np.add.reduceat`` over the design's segment), so no bit
    of a design's fit depends on the other designs in its stack; a design
    that finishes leaves the stack.  A penalized stack holds one design.
    """
    if penalized and len(designs) > 1:
        raise ValueError("a penalized stack holds one design")
    lam = float(opts.l1_lambda)
    out = [None] * len(designs)
    if not designs:
        return out
    s = _Stack([_Block(data) for data in designs])
    at = list(range(len(designs)))  # each stacked block's place in ``out``

    def objective_of(beta):
        """eta, and each block's deviance and objective, as lists."""
        eta = s.X @ beta[s.active]
        deviance = 2.0 * _log_loss(eta, s.games, s.wins, s.rows)
        if not penalized:
            return eta, deviance.tolist(), deviance.tolist()
        penalty = 2.0 * lam * np.add.reduceat(np.abs(beta), s.columns)
        return eta, deviance.tolist(), (deviance + penalty).tolist()

    beta = np.concatenate(starts).astype(float)
    eta, deviance, objective = objective_of(beta)
    paths = [[dev] for dev in deviance]
    stabilized = [False] * len(designs)

    for iterations in range(1, opts.max_iterations + 1):
        residual, variance = _residual(np.clip(eta, -_ETA_CAP, _ETA_CAP), s.games, s.wins)
        np.multiply(s.X.data, np.repeat(s.games * variance, s.row_nnz),
                    out=s.weighted.data)
        g = s.Xt @ residual
        hessian = s.gram()
        if penalized:
            solution = _prox(hessian, g, beta[s.active], lam)
            solved = [True]
        else:
            diagonal = hessian.diagonal()
            if iterations == 1:
                # every weight is m/4 at beta = 0, so this X'WX is X'MX / 4
                players = np.array([b.players for b in s.blocks])
                stabilized = (_nullity(s.X, hessian, s.sizes, players) > 0).tolist()
            if any(stabilized):
                diagonal *= s.spread(np.where(stabilized, 1.0 + LAST_RESORT_RIDGE, 1.0),
                                     s.sizes)
                hessian.setdiag(diagonal)
            solution, solved = _cg(hessian, diagonal, g, s, math.sqrt(opts.tolerance))
            if not solved.all():
                solution = np.where(s.spread(solved, s.sizes), solution, 0.0)
            solved = solved.tolist()
        direction = np.zeros(beta.size)
        direction[s.active] = solution

        step = [1.0] * len(at)
        candidate = beta + direction
        for halvings in range(MAX_STEP_HALVINGS + 1):
            candidate_eta, candidate_dev, candidate_obj = objective_of(candidate)
            descent = [c <= o for c, o in zip(candidate_obj, objective)]
            if all(descent) or halvings == MAX_STEP_HALVINGS:
                break
            step = [h if ok else 0.5 * h for h, ok in zip(step, descent)]
            candidate = beta + s.spread(np.array(step), s.p) * direction
        # a block without descent at float precision has converged
        moved = [ok and fine for ok, fine in zip(solved, descent)]
        if penalized:
            change = np.maximum.reduceat(np.abs(candidate - beta), s.columns).tolist()
        else:
            change = [abs(o - c) / max(o, 1e-10) for o, c in zip(objective, candidate_obj)]
        if all(moved):
            beta, eta = candidate, candidate_eta
        else:
            beta = np.where(s.spread(np.array(moved), s.p), candidate, beta)
            eta = np.where(s.spread(np.array(moved), s.row_sizes), candidate_eta, eta)
        for j in range(len(at)):
            if moved[j]:
                deviance[j], objective[j] = candidate_dev[j], candidate_obj[j]
                paths[at[j]].append(deviance[j])
        converged = [ok and (not fine or c < opts.tolerance)
                     for ok, fine, c in zip(solved, descent, change)]
        done = [c or not ok or iterations == opts.max_iterations
                for c, ok in zip(converged, solved)]
        if not any(done):
            continue
        for j in range(len(at)):
            if not done[j]:
                continue
            b = s.blocks[j]
            result = FitResult(
                coefficients=beta[s.columns[j]:s.columns[j] + s.p[j]],
                deviance=deviance[j],
                iterations=iterations,
                converged=converged[j],
                l1_lambda=lam,
                index=b.data.index,
                stabilized=stabilized[j],
                no_data_columns=b.no_data,
                deviance_path=tuple(paths[at[j]]),
            )
            out[at[j]] = result if solved[j] else FitError(
                "conjugate gradients did not solve the Newton system", result)
        if all(done):
            break
        keep = np.logical_not(done)
        beta, eta = beta[s.spread(keep, s.p)], eta[s.spread(keep, s.row_sizes)]
        deviance, objective, stabilized, at = (
            [v for v, gone in zip(values, done) if not gone]
            for values in (deviance, objective, stabilized, at))
        s = _Stack([b for b, gone in zip(s.blocks, done) if not gone])
    return out


def _cg(matrix, diagonal: np.ndarray, rhs: np.ndarray, stack: _Stack,
        tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve each diagonal block of matrix x = rhs by Jacobi-preconditioned
    conjugate gradients, the blocks of ``stack`` all at once.

    Each block takes its own steps.  A block stops once its residual is
    within ``tolerance`` of its |rhs|, or after
    ``_SOLVE_STEPS_PER_COLUMN`` iterations per unknown, or at a direction
    without positive curvature; from then on its step sizes are 0, so
    none of its numbers moves.  Returns the iterate and whether each
    block met its bound.  ``matrix`` is symmetric positive semidefinite
    with the positive ``diagonal``, in CSR form.
    """
    n, sizes, k = rhs.size, stack.sizes, stack.sizes.size
    inv_diag = 1.0 / diagonal
    x, r, z, md = np.zeros(n), rhs.copy(), inv_diag * rhs, np.empty(n)
    d = z.copy()
    # per-block sums of products written to the halves of ``sums``, each
    # followed by a 0 that empty blocks read: one reduceat gives r'r and r'z
    sums = np.zeros(2 * n + 2)
    first, second = sums[:n], sums[n + 1:-1]
    np.multiply(r, r, out=first)
    np.multiply(z, r, out=second)
    both = np.add.reduceat(sums, stack.ends_twice)[::2]
    rr, rz = both[:k], both[k:]
    bound = tolerance ** 2 * rr  # on the squared residual norm
    live = rr > bound
    # a stopped block passes the curvature test and never meets the bound again
    least = np.where(live, 0.0, -np.inf).tolist()
    stop = np.where(live, bound, -1.0).tolist()
    alpha, beta = np.zeros(k), np.zeros(k)
    limits = _SOLVE_STEPS_PER_COLUMN * sizes
    checks = set(limits.tolist())
    # Md by the kernel behind ``matrix @ d``
    matvec = partial(_sparsetools.csr_matvec, n, n, matrix.indptr, matrix.indices,
                     matrix.data, d, md)
    # the step sizes' ``where``: True, the cheaper, while every block runs
    running = True if live.all() else live

    def halt(blocks):
        nonlocal running
        live[blocks] = False
        alpha[blocks] = beta[blocks] = 0.0
        for j in np.flatnonzero(blocks).tolist():
            least[j], stop[j] = -np.inf, -1.0
        running = live
        return live.any()

    for step in range(max(checks) if live.any() else 0):
        if step in checks and not halt(limits <= step):
            break
        md.fill(0.0)
        matvec()
        np.multiply(d, md, out=first)
        curvature = np.add.reduceat(sums[:n + 1], stack.ends)[::2]
        if not all(map(float.__gt__, curvature.tolist(), least)):
            if not halt(~(curvature > least)):
                break
        np.divide(rz, curvature, out=alpha, where=running)
        step_size = stack.spread(alpha, sizes)
        x += step_size * d
        r -= step_size * md
        np.multiply(inv_diag, r, out=z)
        np.multiply(r, r, out=first)
        np.multiply(z, r, out=second)
        both = np.add.reduceat(sums, stack.ends_twice)[::2]
        rr, rz_next = both[:k], both[k:]
        if any(map(float.__le__, rr.tolist(), stop)) and not halt(rr <= stop):
            break
        np.divide(rz_next, rz, out=beta, where=running)
        rz = rz_next
        d *= stack.spread(beta, sizes)
        d += z
    return x, rr <= bound


def _prox(hessian, g: np.ndarray, x: np.ndarray, lam: float) -> np.ndarray:
    """Proximal Newton step z - x: z minimizes (z-x)'H(z-x)/2 - g'(z-x) + lam |z|_1.

    Soft-thresholded gradient steps (FISTA, with adaptive restart) scaled
    by H's absolute row sums, a diagonal that majorizes H, so zeros are
    exact.  Stops once no coordinate moves by more than ``_SOLVE_TOLERANCE``,
    or after ``_SOLVE_STEPS_PER_COLUMN`` steps per unknown.
    """
    scale = 1.0 / np.asarray(abs(hessian).sum(axis=1)).ravel()
    threshold = lam * scale
    n = x.size
    hy = np.empty(n)

    def product(v: np.ndarray) -> np.ndarray:
        """H v, by the kernel behind ``hessian @ v``, into ``hy``."""
        hy.fill(0.0)
        _sparsetools.csr_matvec(n, n, hessian.indptr, hessian.indices, hessian.data, v, hy)
        return hy

    offset = product(x) + g  # the model's gradient at y is H y - offset
    z = y = x
    t = 1.0
    for _ in range(_SOLVE_STEPS_PER_COLUMN * n):
        u = y - scale * (product(y) - offset)
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


def _accuracy(beta: np.ndarray, data: EncodedDataset) -> float:
    """Fraction of games predicted correctly at the 0.5 threshold.

    Ties (probability exactly 0.5, which |eta| < 1e-16 rounds to)
    predict that player1 wins.
    """
    predicted = (sigmoid(data.linear_predictor(beta)) >= 0.5).astype(np.int8)
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
            acc[li, fi] = _accuracy(fit.coefficients, test)
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
            {"player": player, "estimate": estimate}
            for player, estimate in fit._lookup[0].items()
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
            "p": int, "p_effective": int},
    "anchored_players": [str],
    "components": [[str]],
}


def fit_from_obj(obj) -> FitResult:
    """Rebuild the fit ``fit_to_obj`` represented, index included.

    Raises ValueError naming the first missing or mistyped key, saying
    that the players and matchups are not in column layout or that a
    player is both fitted and anchored, or naming a key whose value the
    rest of the artifact contradicts.  Keys it does not read are
    ignored, so artifacts that still hold a key no longer written load.
    """
    _check_shape(obj, _FIT_SHAPE)
    players, matchups, meta = obj["players"], obj["matchups"], obj["fit"]
    idx = _layout([e["player"] for e in players], obj["anchored_players"],
                  [e["map"] for e in matchups[::3]], obj["components"])
    layout = [(e["map"], (e["race1"], e["race2"])) for e in matchups]
    if len(idx.player_columns) != len(players) or layout != list(idx.matchup_columns):
        raise ValueError("players and matchups are not in column layout")
    both = idx.anchored_players & idx.player_columns.keys()
    if both:
        raise ValueError(f"player {min(both)!r} is both fitted and anchored")
    fit = FitResult(
        coefficients=[e["estimate"] for e in players + matchups],
        deviance=meta["deviance"],
        iterations=meta["iterations"],
        converged=meta["converged"],
        l1_lambda=meta["l1_lambda"],
        index=idx,
        stabilized=meta["stabilized"],
        no_data_columns=tuple(len(players) + i for i, e in enumerate(matchups)
                              if not e["observed"]),
    )
    for key, value, source in (("p", idx.p, "the columns give"),
                               ("p_effective", fit.p_effective, "the columns give"),
                               ("log_likelihood", fit.log_likelihood, "-deviance / 2 is")):
        if meta[key] != value:
            raise ValueError(f"key {key!r} is {meta[key]}, but {source} {value}")
    return fit
