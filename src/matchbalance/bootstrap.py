"""Case-resampling bootstrap over match records.

The estimand is the full fit's: each call indexes the whole dataset
once, with the caller's ``min_games`` (``design._index``), and every
draw is encoded against that index, so each draw has the full sample's
anchored players, components and columns, and its statistic is the one
the full fit reports (the plug-in principle: the same estimator on each
resample).  A draw picks the games of a :func:`resample` of the
dataset, from the same random stream, but takes no rows: like every
design, it counts the games and wins it holds on each of the dataset's
distinct coded rows (``Dataset._coded``), encodes its rows that hold
games once each (``design._design``), and is refitted and aggregated
into the per-race-pair mean balance statistic or the dispersion
estimate, whose sum runs over the drawn games in draw order.  Every bit
equals that of resampling the records, encoding them against the whole
dataset's index and refitting.  A player the draw holds no game of
keeps a column with no data, which the fit freezes at 0 and no pair's
statistic reads; a balance draw that holds no game in a (map, race pair)
cell the whole dataset observes fails ("lacks a matchup cell"), since
that column would enter its map average at 0.  Draw ``b`` of master
seed ``s`` uses ``numpy.random.SeedSequence((s, b))``, so results never
depend on ``jobs`` or on execution order.

The draws' designs are fitted together, as stacks (``glm._fit_stacks``):
each Newton step makes one assembly and each conjugate-gradient step
one sparse product for all of them, and a draw's fit is bitwise the one
``fit_irls`` gives it alone.  With ``jobs`` above 1, each worker process
fits one contiguous chunk of the draws, because the fits hold the
interpreter lock; with ``jobs=1`` the calling process fits them all.
Workers are forked where the platform allows, so they inherit the
dataset, its distinct coded rows and the index, which the caller builds
before the fork, instead of receiving a pickled copy; each one still
adds its own memory as it writes.  On Python 3.12 and later, forking
from a caller that runs other threads emits a ``DeprecationWarning``.
Every call starts its workers and stops them before it returns, also
when it raises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import RACES, Dataset
from .design import CANONICAL_PAIRS, _design, _index, _slots
from .diagnostics import pearson_dispersion
from .glm import FitError, FitOptions, FitResult, _fit_stacks

MAX_FAILURE_FRACTION = 0.2


class BootstrapError(RuntimeError):
    """Too many draws failed, or a worker process died before its draws ended."""


@dataclass
class BalanceStatistic:
    """Per canonical race pair, the matchup coefficient averaged over maps."""

    per_pair: dict[tuple[str, str], float]
    m: int


@dataclass
class BootstrapSummary:
    """Per-draw statistics with means, sample SDs and tail probabilities.

    ``draws`` holds one entry per successful draw (a per-pair dict for
    balance runs, a float for dispersion runs).  ``sd`` entries are
    None when fewer than two draws succeeded.  ``tail_prob`` is the
    fraction of successful draws strictly above zero (balance runs
    only).
    """

    kind: str
    draws: list
    mean: dict | float | None
    sd: dict | float | None
    tail_prob: dict | None
    B: int
    failed: int
    seed: int


def resample(d: Dataset, rng: np.random.Generator) -> Dataset:
    """Draw len(d) records uniformly with replacement, as a row take of ``d``."""
    return d._take(_draw(d, rng))


def _draw(d: Dataset, rng: np.random.Generator) -> np.ndarray:
    """The rows of a draw of len(d) games uniformly with replacement."""
    if not len(d):
        raise ValueError("cannot resample an empty dataset")
    return rng.integers(0, len(d), size=len(d))


def aggregate_balance(fit: FitResult) -> BalanceStatistic:
    """Unweighted mean over maps of each canonical matchup coefficient.

    Combinations with no data enter at their fitted value, which is 0.
    """
    idx = fit.index
    if not idx.maps:
        raise ValueError("fit has no maps to average over")
    per_pair = {
        pair: float(np.mean(fit.coefficients[[idx.matchup_columns[m, pair] for m in idx.maps]]))
        for pair in CANONICAL_PAIRS
    }
    return BalanceStatistic(per_pair=per_pair, m=len(idx.maps))


def _balance(fit: FitResult, data) -> dict[tuple[str, str], float]:
    return aggregate_balance(fit).per_pair


def _dispersion(fit: FitResult, data) -> float:
    return pearson_dispersion(fit, data).phi


def _run_draws(d, columns, opts, cells, seed, statistic, draws: range) -> list:
    """Per draw b in ``draws``, in order, the (statistic, None) of its
    converged refit, or (None, cause).  The draws' designs are fitted
    together, as stacks (``glm._fit_stacks``)."""
    designs = (_draw_design(d, columns, seed, b) for b in draws)
    return _fit_stacks(designs, opts, partial(_outcome, statistic, cells))


def _draw_design(d, columns, seed, b):
    """Draw ``b``'s design, as the game counts of ``resample``'s draw on the
    dataset's distinct coded rows, encoded against the whole dataset's
    ``columns`` (player columns, matchup columns, index), or None when it
    cannot be encoded."""
    picked = _draw(d, np.random.default_rng(np.random.SeedSequence((seed, b))))
    try:
        return _design(d, picked, *columns)
    except ValueError:
        return None


def _cells(d: Dataset, player: np.ndarray, matchup: np.ndarray) -> np.ndarray:
    """The matchup columns that hold a game of ``d``: its observed (map,
    race pair) cells.  Rows with an unrecognized race tag hold none."""
    rows = d._coded[0]
    rows = rows[(rows[:, 2:4] < len(RACES)).all(axis=1)]
    column = _slots(rows, player, matchup)[0][:, 2]
    return np.unique(column[column >= 0])


def _outcome(statistic, cells, data, fit):
    """A draw's (statistic, None), or (None, cause) without a design, a
    converged fit or a game in each of ``cells``."""
    if data is None:
        return None, "raised ValueError"
    if isinstance(fit, FitError):
        return None, "raised FitError"
    if not fit.converged:
        return None, "did not converge"
    if np.isin(cells, fit.no_data_columns).any():
        return None, "lacks a matchup cell"
    try:
        return statistic(fit, data), None
    except ValueError:
        return None, "raised ValueError"


_worker_draws = None  # a worker's callable on a range of draws, set by _start_worker


def _start_worker(draws) -> None:
    global _worker_draws
    _worker_draws = draws


def _draws_in_worker(chunk: range) -> list:
    return _worker_draws(chunk)


def _map_in_processes(run, B: int, workers: int) -> list:
    """``run(chunk)`` on a pool of ``workers`` processes, one contiguous chunk
    of range(B) each, concatenated in draw order.

    ``run`` reaches each worker once, as its initializer's argument: under
    fork it is inherited, not pickled.  A worker that dies raises
    :class:`BootstrapError`; the pool is shut down before this returns.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    bounds = [B * w // workers for w in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method),
                             initializer=_start_worker, initargs=(run,)) as pool:
        try:
            return [result for chunk in pool.map(_draws_in_worker, chunks)
                    for result in chunk]
        except BrokenProcessPool as exc:
            raise BootstrapError(
                "a bootstrap worker process died before its draws ended "
                "(killed, for example, when memory ran out)"
            ) from exc


def _draws(d: Dataset, B: int, opts: FitOptions, min_games: int, seed: int,
           jobs: int, statistic, *, every_cell: bool) -> tuple[list, int]:
    """Successful draws' statistics in draw order, and the failure count.

    The whole dataset is indexed once, with ``min_games``, here and
    before any worker forks, and every draw is encoded against that
    index.  With ``every_cell``, a draw that holds no game in a matchup
    cell the whole dataset observes fails.  Draws use independent
    derived seeds, and a draw's fit does not depend on the stack it is
    fitted in, so running them on ``jobs`` workers cannot change the
    results.  ``jobs=1`` runs them in this process, and ``jobs`` below 1
    raises ValueError, as do ``min_games`` below 1 and an empty dataset.
    More than 20% failures raises :class:`BootstrapError`, whose message
    counts the failures by cause.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    idx, player, matchup = _index(d, np.bincount(d._coded[1]), min_games)
    cells = _cells(d, player, matchup) if every_cell else np.empty(0, np.intc)
    run = partial(_run_draws, d, (player, matchup, idx), opts, cells, seed, statistic)
    workers = min(jobs, B)
    results = _map_in_processes(run, B, workers) if workers > 1 else run(range(B))
    draws = [stat for stat, cause in results if cause is None]
    failed = B - len(draws)
    if failed > MAX_FAILURE_FRACTION * B:
        causes = Counter(cause for _, cause in results if cause is not None)
        by_cause = ", ".join(f"{n} {cause}" for cause, n in sorted(causes.items()))
        raise BootstrapError(
            f"{failed} of {B} bootstrap draws failed, more than "
            f"{MAX_FAILURE_FRACTION:.0%} ({by_cause}); data too unstable for inference"
        )
    return draws, failed


def bootstrap_balance(
    d: Dataset,
    B: int,
    opts: FitOptions = FitOptions(),
    min_games: int = 6,
    seed: int = 0,
    *,
    jobs: int = 1,
) -> BootstrapSummary:
    """Bootstrap distribution of the full fit's mean balance statistic.

    Every draw is encoded against the index of the whole dataset (see
    the module docstring).  Draws that do not converge, or that hold no
    game in a matchup cell the whole dataset observes, are excluded
    from the summaries but counted; more than 20% failures raises
    :class:`BootstrapError`.  ``jobs`` caps the worker processes that
    run the draws (see the module docstring); it never changes the
    results.
    """
    if B < 1:
        raise ValueError(f"draw count must be >= 1, got {B}")
    draws, failed = _draws(d, B, opts, min_games, seed, jobs, _balance,
                           every_cell=True)

    by_pair = {
        pair: np.array([draw[pair] for draw in draws]) for pair in CANONICAL_PAIRS
    }
    mean = {pair: float(v.mean()) for pair, v in by_pair.items()} if draws else None
    sd = (
        {pair: float(v.std(ddof=1)) for pair, v in by_pair.items()}
        if len(draws) >= 2
        else None
    )
    tail = (
        {pair: float(np.mean(v > 0.0)) for pair, v in by_pair.items()}
        if draws
        else None
    )
    return BootstrapSummary("balance", draws, mean, sd, tail, B, failed, seed)


def bootstrap_dispersion(
    d: Dataset,
    B: int,
    opts: FitOptions = FitOptions(),
    min_games: int = 6,
    seed: int = 0,
    *,
    jobs: int = 1,
) -> BootstrapSummary:
    """Bootstrap distribution of the full fit's quasi-binomial dispersion estimate.

    Draws, failures and ``jobs`` are handled as in :func:`bootstrap_balance`,
    except that a draw may lack a matchup cell.
    """
    if B < 2:
        raise ValueError(f"draw count must be >= 2, got {B}")
    draws, failed = _draws(d, B, opts, min_games, seed, jobs, _dispersion,
                           every_cell=False)

    values = np.array(draws)
    mean = float(values.mean()) if draws else None
    sd = float(values.std(ddof=1)) if len(draws) >= 2 else None
    return BootstrapSummary("dispersion", draws, mean, sd, None, B, failed, seed)
