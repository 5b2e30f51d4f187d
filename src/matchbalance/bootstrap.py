"""Case-resampling bootstrap over match records.

Each draw is a :func:`resample` of the dataset, a row take of its
integer-coded columns that builds no record.  The draw is indexed
afresh (so the anchored set can change with the resampled game counts),
encoded, refitted, and aggregated into the per-race-pair mean balance
statistic or the dispersion estimate.  Draw
``b`` of master seed ``s`` uses ``numpy.random.SeedSequence((s, b))``,
so results never depend on ``jobs`` or on execution order.

With ``jobs`` above 1, draws run in worker processes, because a draw's
fit is many small numpy calls that hold the interpreter lock.  Workers
are forked where the platform allows, so they inherit the dataset
instead of receiving a pickled copy; each one still adds its own memory
as it writes.  On Python 3.12 and later, forking from a caller that runs
other threads emits a ``DeprecationWarning``.  Every call starts its
workers and stops them before it returns, also when it raises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .design import CANONICAL_PAIRS, build_design, build_parameter_index
from .diagnostics import pearson_dispersion
from .glm import FitError, FitOptions, FitResult, fit_irls

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
    if not len(d):
        raise ValueError("cannot resample an empty dataset")
    return d._take(rng.integers(0, len(d), size=len(d)))


def aggregate_balance(fit: FitResult) -> BalanceStatistic:
    """Unweighted mean over maps of each canonical matchup coefficient.

    Combinations with no data enter at their fitted value, which is 0.
    """
    idx = fit.index
    if not idx.maps:
        raise ValueError("fit has no maps to average over")
    per_pair = {
        pair: float(
            np.mean([fit.matchup_estimate(m, pair) for m in idx.maps])
        )
        for pair in CANONICAL_PAIRS
    }
    return BalanceStatistic(per_pair=per_pair, m=len(idx.maps))


def _balance(fit: FitResult, data) -> dict[tuple[str, str], float]:
    return aggregate_balance(fit).per_pair


def _dispersion(fit: FitResult, data) -> float:
    return pearson_dispersion(fit, data).phi


def _run_draw(d, opts, min_games, seed, statistic, b):
    """Draw ``b``'s (statistic, None) of its converged refit, or (None, cause)."""
    sample = resample(d, np.random.default_rng(np.random.SeedSequence((seed, b))))
    try:
        data = build_design(sample, build_parameter_index(sample, min_games))
        fit = fit_irls(data, opts)
        if not fit.converged:
            return None, "did not converge"
        return statistic(fit, data), None
    except FitError:
        return None, "raised FitError"
    except ValueError:
        return None, "raised ValueError"


_worker_draw = None  # a worker process's draw callable, set by _start_worker


def _start_worker(draw) -> None:
    global _worker_draw
    _worker_draw = draw


def _draw_in_worker(b: int):
    return _worker_draw(b)


def _map_in_processes(draw, B: int, workers: int) -> list:
    """``draw(b)`` for b < B on a pool of ``workers`` processes, in draw order.

    ``draw`` reaches each worker once, as its initializer's argument: under
    fork it is inherited, not pickled.  A worker that dies raises
    :class:`BootstrapError`; the pool is shut down before this returns.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method),
                             initializer=_start_worker, initargs=(draw,)) as pool:
        try:
            return list(pool.map(_draw_in_worker, range(B)))
        except BrokenProcessPool as exc:
            raise BootstrapError(
                "a bootstrap worker process died before its draws ended "
                "(killed, for example, when memory ran out)"
            ) from exc


def _draws(d: Dataset, B: int, opts: FitOptions, min_games: int, seed: int,
           jobs: int, statistic) -> tuple[list, int]:
    """Successful draws' statistics in draw order, and the failure count.

    Draws use independent derived seeds, so running them on ``jobs``
    workers cannot change the results.  ``jobs=1`` runs them in this
    process.  More than 20% failures raises :class:`BootstrapError`,
    whose message counts the failures by cause.
    """
    draw = partial(_run_draw, d, opts, min_games, seed, statistic)
    workers = min(jobs, B)
    if workers > 1:
        results = _map_in_processes(draw, B, workers)
    else:
        results = [draw(b) for b in range(B)]
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
    """Bootstrap distribution of the mean balance statistic.

    Non-converged draws are excluded from the summaries but counted;
    more than 20% failures raises :class:`BootstrapError`.  ``jobs``
    caps the worker processes that run the draws (see the module
    docstring); it never changes the results.
    """
    if B < 1:
        raise ValueError(f"draw count must be >= 1, got {B}")
    draws, failed = _draws(d, B, opts, min_games, seed, jobs, _balance)

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
    """Bootstrap distribution of the quasi-binomial dispersion estimate.

    Failures and ``jobs`` are handled as in :func:`bootstrap_balance`.
    """
    if B < 2:
        raise ValueError(f"draw count must be >= 2, got {B}")
    draws, failed = _draws(d, B, opts, min_games, seed, jobs, _dispersion)

    values = np.array(draws)
    mean = float(values.mean()) if draws else None
    sd = float(values.std(ddof=1)) if len(draws) >= 2 else None
    return BootstrapSummary("dispersion", draws, mean, sd, None, B, failed, seed)
