"""Command-line pipeline: ingest -> fit -> diagnostics -> bootstrap -> report.

Every subcommand writes machine-readable JSON/CSV artifacts; the
``report`` subcommand assembles them into a plain-text document without
recomputing anything.  All randomness flows from ``--seed`` (default
0), so any invocation repeated with the same arguments produces
byte-identical output files.

Exit codes: 0 success, 1 usage error, 2 data or convergence error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import bootstrap as bt
from . import diagnostics as dg
from .data import ParseError, dataset_to_csv, describe, filter_valid, parse_matches
from .design import CANONICAL_PAIRS, build_design, build_parameter_index
from .glm import (
    FitError,
    FitOptions,
    default_lambda_grid,
    fit_from_obj,
    fit_irls,
    fit_lasso,
    fit_to_obj,
    select_lambda_cv,
)
from .jsonio import _check_shape, dumps, load_json, write_csv, write_json
from .predict import predict_detail, rank_players
from .report import _ARTIFACT_SHAPES, build_report
from .simulate import generate, random_league

DEFAULT_SEED = 0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{message}\n{self.format_usage()}")


def _at_least(low: float, kind: type = int):
    """argparse ``type=`` for a finite ``kind`` flag that must be >= ``low``."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # so argparse reports e.g. "invalid int value"
    return parse


def _fit_option(field: str):
    """argparse ``type=`` for a float flag that FitOptions must accept as ``field``."""

    def parse(text: str) -> float:
        value = float(text)
        try:
            FitOptions(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = "float"
    return parse


def _load_dataset(path: str):
    # newline="" keeps CR/LF inside quoted cells as written; utf-8-sig drops a BOM
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return filter_valid(parse_matches(fh))
    except UnicodeDecodeError:
        pass
    # The decoder counts its position from its read buffer, not the file, so
    # read the lines again as the parser counts them: surrogateescape turns
    # each byte that is not UTF-8 into one of U+DC80..U+DCFF, which no
    # decoded UTF-8 text holds.
    with open(path, encoding="utf-8-sig", newline="", errors="surrogateescape") as fh:
        line = next(n for n, text in enumerate(fh, 1) if re.search("[\udc80-\udcff]", text))
    raise ValueError(f"{path}: line {line} is not UTF-8 text")


def _load_artifact(path: str, kind: str, check):
    """The ``kind`` artifact at ``path`` and what ``check`` makes of it;
    a ValueError names the file."""
    try:
        obj = load_json(path)
        return obj, check(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: not a {kind} artifact: {exc}") from None


def _fit_options(args, l1: float = 0.0) -> FitOptions:
    return FitOptions(
        max_iterations=args.max_iter,
        tolerance=args.tol,
        l1_lambda=l1,
    )


def _fit_from_args(args):
    d = _load_dataset(args.input)
    idx = build_parameter_index(d, args.min_games)
    data = build_design(d, idx)
    return data, fit_irls(data, _fit_options(args))


def _add_fit_flags(p) -> None:
    p.add_argument("--min-games", type=_at_least(1), default=6,
                   help="anchor players with fewer games than this (default 6)")
    p.add_argument("--max-iter", type=_at_least(1), default=100)
    p.add_argument("--tol", type=_fit_option("tolerance"), default=1e-8)


def _add_input(p) -> None:
    p.add_argument("--input", required=True, help="match CSV file")


def cmd_ingest(args) -> int:
    d = _load_dataset(args.input)
    Path(args.out).write_text(dataset_to_csv(d), encoding="utf-8")
    if args.log:
        write_json(args.log, {
            "kept": len(d),
            "removed": [
                {
                    "player1": r.player1, "race1": r.race1,
                    "player2": r.player2, "race2": r.race2,
                    "map": r.map_name, "date": r.date.isoformat(),
                    "reason": reason,
                }
                for r, reason in d.filter_log
            ],
        })
    print(f"kept {len(d)} records, removed {len(d.filter_log)}")
    return 0


def cmd_describe(args) -> int:
    d = _load_dataset(args.input)
    stats = describe(d)
    obj = {
        "race_counts": stats.race_counts,
        "games_histogram": stats.games_histogram,
        "pair_frequencies": [
            {"race_a": a, "race_b": b, "games": n}
            for (a, b), n in stats.pair_frequencies.items()
        ],
        "pair_wins": [
            {"winner_race": a, "loser_race": b, "wins": n}
            for (a, b), n in stats.pair_wins.items()
        ],
        "win_ratios": [
            {"race1": a, "race2": b, "ratio": v}
            for (a, b), v in sorted(stats.win_ratios.items())
        ],
        "monthly_race_trend": [
            {"month": month, "race": race, "players": c, "proportion": prop}
            for month, row in stats.monthly_race_trend.items()
            for race, (c, prop) in row.items()
        ],
    }
    write_json(f"{args.out}.json", obj)
    write_csv(f"{args.out}_games_per_player.csv", ["player", "games"],
              [[p, c] for p, c in stats.games_per_player.items()])
    write_csv(f"{args.out}_pair_wins.csv", ["winner_race", "loser_race", "wins"],
              [[a, b, n] for (a, b), n in stats.pair_wins.items()])
    write_csv(
        f"{args.out}_monthly_trend.csv",
        ["month", "race", "players", "proportion"],
        [[e["month"], e["race"], e["players"], e["proportion"]]
         for e in obj["monthly_race_trend"]],
    )
    print(f"wrote {args.out}.json")
    return 0


def cmd_fit(args) -> int:
    _, fit = _fit_from_args(args)
    write_json(args.out, fit_to_obj(fit))
    print(f"wrote {args.out} (converged: {fit.converged}, "
          f"deviance: {fit.deviance:.6g})")
    return 0


def cmd_diagnose(args) -> int:
    data, fit = _fit_from_args(args)
    if args.check == "lrt":
        statistic, df, p_value = dg.lrt_vs_constant(fit, data)
        write_json(args.out, {"statistic": statistic, "df": df, "p_value": p_value})
    elif args.check == "hl":
        result = dg.hosmer_lemeshow(fit, data, args.groups)
        write_json(args.out, {
            "groups": args.groups,
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
            "group_table": result.group_table,
        })
    elif args.check == "dispersion":
        est = dg.pearson_dispersion(fit, data)
        write_json(args.out, {"phi": est.phi, "n": est.n,
                              "p_effective": est.p_effective})
    else:  # residuals
        pairs = dg.residuals_vs_fitted(fit, data)
        write_csv(args.out, ["fitted", "pearson_residual"],
                  [[f, r] for f, r in pairs])
    print(f"wrote {args.out}")
    return 0


def cmd_cv(args) -> int:
    d = _load_dataset(args.input)
    summary = dg.k_fold_cv(d, args.folds, _fit_options(args), args.min_games, args.seed)
    write_json(args.out, {
        "k": summary.k,
        "seed": summary.seed,
        "train_mean": summary.train_mean,
        "train_sd": summary.train_sd,
        "test_mean": summary.test_mean,
        "test_sd": summary.test_sd,
        "per_fold": [
            {"train_accuracy": a, "test_accuracy": b} for a, b in summary.per_fold
        ],
    })
    print(f"wrote {args.out} (test accuracy {summary.test_mean:.4f})")
    return 0


def cmd_lasso(args) -> int:
    d = _load_dataset(args.input)
    idx = build_parameter_index(d, min_games=1, ensure_identifiable=False)
    data = build_design(d, idx)
    if args.l1 is not None:
        lam = args.l1
    else:
        grid = default_lambda_grid(data, num=args.grid_size)
        lam = select_lambda_cv(data, args.folds, grid, args.seed,
                               _fit_options(args))
    fit = fit_lasso(data, _fit_options(args, l1=lam))
    obj = fit_to_obj(fit)
    obj["fit"]["selected_lambda"] = lam
    write_json(args.out, obj)
    nonzero = int(np.count_nonzero(fit.coefficients))
    print(f"wrote {args.out} (lambda {lam:.6g}, {nonzero} nonzero coefficients)")
    return 0


def _pair_csv_label(pair: tuple[str, str]) -> str:
    return f"{pair[0].lower()}_over_{pair[1].lower()}"


def cmd_bootstrap(args) -> int:
    d = _load_dataset(args.input)
    run = bt.bootstrap_balance if args.stat == "balance" else bt.bootstrap_dispersion
    summary = run(d, args.B, _fit_options(args), args.min_games, args.seed,
                  jobs=args.jobs)
    obj = {"kind": summary.kind, "B": summary.B, "failed": summary.failed,
           "seed": summary.seed}
    if args.stat == "balance":
        obj["pairs"] = [
            {
                "race1": pair[0],
                "race2": pair[1],
                "mean": summary.mean[pair] if summary.mean else None,
                "sd": summary.sd[pair] if summary.sd else None,
                "tail_prob": summary.tail_prob[pair] if summary.tail_prob else None,
            }
            for pair in CANONICAL_PAIRS
        ]
        header = ["draw"] + [_pair_csv_label(pair) for pair in CANONICAL_PAIRS]
        rows = [[i] + [draw[pair] for pair in CANONICAL_PAIRS]
                for i, draw in enumerate(summary.draws)]
    else:
        obj["mean"], obj["sd"] = summary.mean, summary.sd
        header = ["draw", "phi"]
        rows = [[i, phi] for i, phi in enumerate(summary.draws)]
    write_json(f"{args.out}.json", obj)
    write_csv(f"{args.out}_draws.csv", header, rows)
    print(f"wrote {args.out}.json and {args.out}_draws.csv "
          f"({summary.failed} failed draws)")
    return 0


def cmd_predict(args) -> int:
    _, fit = _load_artifact(args.fit, "fit", fit_from_obj)
    detail = predict_detail(fit, args.player1, args.player2,
                            args.race1, args.race2, args.map)
    print(dumps(detail))
    return 0


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    truth = random_league(
        args.players, args.maps, rng,
        skill_sd=args.skill_sd, matchup_sd=args.matchup_sd,
        schedule=args.schedule,
    )
    d = generate(truth, args.games, rng)
    Path(args.out).write_text(dataset_to_csv(d), encoding="utf-8")
    if args.truth:
        write_json(args.truth, {
            "schedule": truth.schedule,
            "players": [
                {"player": p, "skill": truth.player_skills[p],
                 "race": truth.race_of[p]}
                for p in sorted(truth.player_skills)
            ],
            "matchup_effects": [
                {"map": m, "race1": pair[0], "race2": pair[1],
                 "effect": truth.matchup_effects[(m, pair)]}
                for m in truth.maps
                for pair in CANONICAL_PAIRS
            ],
        })
    print(f"wrote {args.out} ({len(d)} games)")
    return 0


def cmd_rank(args) -> int:
    _, fit = _load_artifact(args.fit, "fit", fit_from_obj)
    ranked = rank_players(fit)[:len(fit.index.player_columns)]
    write_json(args.out, {
        "ranked": [
            {"rank": i + 1, "player": p, "estimate": v}
            for i, (p, v) in enumerate(ranked)
        ],
        "anchored": sorted(fit.index.anchored_players),
    })
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    def maybe(kind):
        path = getattr(args, kind)
        check = partial(_check_shape, shape=_ARTIFACT_SHAPES[kind])
        return _load_artifact(path, kind, check)[0] if path else None

    text = build_report(
        _load_artifact(args.fit, "fit", fit_from_obj)[0],
        **{kind: maybe(kind) for kind in _ARTIFACT_SHAPES},
        residuals_path=args.residuals,
    )
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="matchbalance",
                     description="paired-comparison skill and map-balance analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate and re-serialize a match CSV")
    _add_input(p)
    p.add_argument("--out", required=True, help="cleaned CSV path")
    p.add_argument("--log", help="optional JSON filter-log path")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("describe", help="descriptive statistic tables")
    _add_input(p)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("fit", help="maximum-likelihood fit")
    _add_input(p)
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("diagnose", help="model adequacy checks")
    p.add_argument("check", choices=["lrt", "hl", "dispersion", "residuals"])
    _add_input(p)
    _add_fit_flags(p)
    p.add_argument("--groups", type=_at_least(3), default=10, help="calibration bins")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("cv", help="k-fold cross-validated accuracy")
    _add_input(p)
    _add_fit_flags(p)
    p.add_argument("--folds", type=_at_least(2), default=10)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("lasso", help="L1-penalized fit (no anchoring)")
    _add_input(p)
    _add_fit_flags(p)
    p.add_argument("--l1", type=_fit_option("l1_lambda"),
                   help="penalty; omit to select by CV")
    p.add_argument("--folds", type=_at_least(2), default=10)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--grid-size", type=_at_least(1), default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_lasso)

    p = sub.add_parser("bootstrap", help="case-resampling bootstrap")
    p.add_argument("stat", choices=["balance", "dispersion"])
    _add_input(p)
    _add_fit_flags(p)
    p.add_argument("-B", type=_at_least(1), default=1000, help="number of draws")
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="cap on worker processes for draws, forked where the "
                        "platform allows; never changes the results")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("predict", help="win probability from a fit artifact")
    p.add_argument("--fit", required=True)
    p.add_argument("--player1", required=True)
    p.add_argument("--race1", required=True)
    p.add_argument("--player2", required=True)
    p.add_argument("--race2", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("simulate", help="generate a synthetic league")
    p.add_argument("--players", type=_at_least(2), required=True)
    p.add_argument("--maps", type=_at_least(1), default=3)
    p.add_argument("--games", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--skill-sd", type=_at_least(0, float), default=1.0)
    p.add_argument("--matchup-sd", type=_at_least(0, float), default=1.0)
    p.add_argument("--schedule", choices=["uniform", "tournament_tail"],
                   default="uniform")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--truth", help="optional truth JSON path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("rank", help="skill ranking from a fit artifact")
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("report", help="assemble artifacts into a text report")
    p.add_argument("--fit", required=True)
    p.add_argument("--lrt")
    p.add_argument("--hl")
    p.add_argument("--dispersion")
    p.add_argument("--cv")
    p.add_argument("--balance")
    p.add_argument("--boot-dispersion")
    p.add_argument("--rank")
    p.add_argument("--residuals", help="path of a residuals CSV to reference")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bootstrap" and args.stat == "dispersion" and args.B < 2:
            parser.error(f"argument -B: must be >= 2 for dispersion, got {args.B}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ParseError, FitError, bt.BootstrapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
