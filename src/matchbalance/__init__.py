"""Paired-comparison skill and map-balance estimation for 1v1 match records.

Fits a logistic model where each game's log-odds are the skill
difference of the two players plus a signed per-map race-matchup
offset, then answers "who is strongest?" and "is the game balanced?"
with a full diagnostic and bootstrap-inference pipeline.
"""

from .bootstrap import (
    BalanceStatistic,
    BootstrapError,
    BootstrapSummary,
    aggregate_balance,
    bootstrap_balance,
    bootstrap_dispersion,
    resample,
)
from .data import (
    RACES,
    Dataset,
    DescriptiveStats,
    MatchRecord,
    ParseError,
    dataset_to_csv,
    describe,
    filter_valid,
    games_per_player,
    parse_matches,
)
from .design import (
    CANONICAL_PAIRS,
    EncodedDataset,
    EncodingError,
    ParameterIndex,
    build_design,
    build_parameter_index,
    canonical_orientation,
)
from .diagnostics import (
    CvSummary,
    DispersionEstimate,
    HosmerLemeshowResult,
    hosmer_lemeshow,
    k_fold_cv,
    lrt_vs_constant,
    pearson_dispersion,
    residuals_vs_fitted,
    zero_overlap,
)
from .glm import (
    FitError,
    FitOptions,
    FitResult,
    chi_square_sf,
    default_lambda_grid,
    fit_irls,
    fit_lasso,
    lambda_max,
    log_likelihood,
    score,
    select_lambda_cv,
    sigmoid,
)
from .predict import predict_detail, rank_players, win_probability
from .simulate import LeagueTruth, generate, random_league, true_eta, truth_error

__version__ = "0.1.0"

__all__ = [
    "BalanceStatistic",
    "BootstrapError",
    "BootstrapSummary",
    "CANONICAL_PAIRS",
    "CvSummary",
    "Dataset",
    "DescriptiveStats",
    "DispersionEstimate",
    "EncodedDataset",
    "EncodingError",
    "FitError",
    "FitOptions",
    "FitResult",
    "HosmerLemeshowResult",
    "LeagueTruth",
    "MatchRecord",
    "ParameterIndex",
    "ParseError",
    "RACES",
    "aggregate_balance",
    "bootstrap_balance",
    "bootstrap_dispersion",
    "build_design",
    "build_parameter_index",
    "canonical_orientation",
    "chi_square_sf",
    "dataset_to_csv",
    "default_lambda_grid",
    "describe",
    "filter_valid",
    "fit_irls",
    "fit_lasso",
    "games_per_player",
    "generate",
    "hosmer_lemeshow",
    "k_fold_cv",
    "lambda_max",
    "log_likelihood",
    "lrt_vs_constant",
    "parse_matches",
    "pearson_dispersion",
    "predict_detail",
    "random_league",
    "rank_players",
    "resample",
    "residuals_vs_fitted",
    "score",
    "select_lambda_cv",
    "sigmoid",
    "true_eta",
    "truth_error",
    "win_probability",
    "zero_overlap",
]
