"""Case-resampling bootstrap over match records.

Each draw is a :func:`resample` of the dataset, a row take of its
integer-coded columns that builds no record.  The draw is indexed
afresh (so the anchored set can change with the resampled game counts),
encoded, refitted, and aggregated into the per-race-pair mean balance
statistic or the dispersion estimate.  Draw
``b`` of master seed ``s`` uses ``numpy.random.SeedSequence((s, b))``,
so results do not depend on execution order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .design import CANONICAL_PAIRS, build_design, build_parameter_index
from .diagnostics import pearson_dispersion
from .glm import FitError, FitOptions, FitResult, fit_irls

MAX_FAILURE_FRACTION = 0.2


class BootstrapError(RuntimeError):
    """Too many draws failed; the data is too unstable for inference."""


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


def _run_draw(d, opts, min_games, seed, b):
    sample = resample(d, np.random.default_rng(np.random.SeedSequence((seed, b))))
    try:
        data = build_design(sample, build_parameter_index(sample, min_games))
        fit = fit_irls(data, opts)
    except (FitError, ValueError):
        return None, None
    if not fit.converged:
        return None, None
    return fit, data


def _bootstrap_fits(d: Dataset, B: int, opts: FitOptions, min_games: int, seed: int,
                    jobs: int = 1):
    """Yield (fit-or-None, data-or-None) per draw, in draw order.

    Draws use independent derived seeds, so running them on ``jobs``
    workers cannot change the results.
    """
    draw = partial(_run_draw, d, opts, min_games, seed)
    if jobs <= 1:
        yield from map(draw, range(B))
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(draw, range(B))


def _check_failures(failed: int, B: int) -> None:
    if failed > MAX_FAILURE_FRACTION * B:
        raise BootstrapError(
            f"{failed} of {B} bootstrap draws failed to converge "
            f"(> {MAX_FAILURE_FRACTION:.0%}); data too unstable for inference"
        )


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
    more than 20% failures raises :class:`BootstrapError`.
    """
    if B < 1:
        raise ValueError(f"draw count must be >= 1, got {B}")
    draws: list[dict[tuple[str, str], float]] = []
    failed = 0
    for fit, _data in _bootstrap_fits(d, B, opts, min_games, seed, jobs):
        if fit is None:
            failed += 1
            continue
        draws.append(aggregate_balance(fit).per_pair)
    _check_failures(failed, B)

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
    """Bootstrap distribution of the quasi-binomial dispersion estimate."""
    if B < 2:
        raise ValueError(f"draw count must be >= 2, got {B}")
    draws: list[float] = []
    failed = 0
    for fit, data in _bootstrap_fits(d, B, opts, min_games, seed, jobs):
        if fit is None:
            failed += 1
            continue
        try:
            draws.append(pearson_dispersion(fit, data).phi)
        except ValueError:
            failed += 1
    _check_failures(failed, B)

    values = np.array(draws)
    mean = float(values.mean()) if draws else None
    sd = float(values.std(ddof=1)) if len(draws) >= 2 else None
    return BootstrapSummary("dispersion", draws, mean, sd, None, B, failed, seed)
