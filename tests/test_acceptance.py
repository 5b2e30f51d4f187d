"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen.  Three checks (1a, 4a, 6b) started from reference claims
that the model's own arithmetic contradicts; each asserts what its
claim implies instead, and its PASS line keeps the reference literal
and why it was wrong:

- 1a: the walkthrough probability, predicted and printed by demo 01,
  lies within 5e-4 of 1/(1+exp(-0.36336)) = 0.58985 (the reference
  printed 0.516, which would need a log-odds of 0.064);
- 4a: on a league with a single anchor, the design is rank-deficient
  by 2 and the identified part of the error is consistent with its
  standard errors (the reference bound of 0.15 on the raw error is
  below one standard error at this sample size);
- 6b: entering every game twice keeps the fit and turns the dispersion
  phi into phi*2(n-p)/(2n-p) <= phi (the reference asked for > 1.3).
"""
import datetime as dt
import math
import re
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance.glm import FitOptions
from helpers import (
    casual_base_league,
    noise_league,
    pinned_small_league,
    simple_league,
    table_counts_dataset,
)
from oracles import encode_row, gd_maximize, per_game

DEMOS = Path(__file__).resolve().parents[1] / "demos"

ORACLE_SEEDS = [3001, 3002, 3003, 3004, 3005, 3006, 3007, 3009, 3010, 3012,
                3013, 3014, 3015, 3016, 3017, 3019, 3021, 3022, 3023, 3024]


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def injected_star_fit():
    recs = [
        MatchRecord(i % 2, "Greg Fields", "Zerg", "Jonathan Walsh", "Terran",
                    "Xel'Naga Caverns", dt.date(2011, 1, 1 + i), 1000 + i)
        for i in range(6)
    ]
    recs.append(MatchRecord(0, "filler", "Zerg", "Greg Fields", "Zerg",
                            "Xel'Naga Caverns", dt.date(2011, 1, 9), 500))
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=2)
    fit = mb.fit_irls(mb.build_design(d, idx))
    beta = fit.coefficients.copy()
    beta[idx.player_columns["Greg Fields"]] = 2.098
    beta[idx.player_columns["Jonathan Walsh"]] = 1.797
    beta[idx.matchup_columns["Xel'Naga Caverns", ("Terran", "Zerg")]] = -0.0632
    return replace(fit, coefficients=beta)


def test_criterion_1a_walkthrough_printed_probability(capsys):
    expected = 1.0 / (1.0 + math.exp(-0.36336))
    fit = injected_star_fit()
    detail = mb.predict_detail(fit, "Greg Fields", "Jonathan Walsh",
                               "Zerg", "Terran", "Xel'Naga Caverns")
    p = detail["probability"]

    runpy.run_path(str(DEMOS / "01_win_probability_walkthrough.py"),
                   run_name="__main__")
    match = re.search(r"^P\(Greg Fields wins\) = ([0-9.]+)$",
                      capsys.readouterr().out, re.MULTILINE)
    printed = float(match.group(1)) if match else math.nan
    ok = abs(p - expected) < 5e-4 and abs(printed - expected) < 5e-4
    report("1a", ok,
           f"injected (2.098, 1.797, 0.0632) predicts {p:.5f} and demo 01 "
           f"prints {printed:.4f}, both within 5e-4 of the reference formula "
           f"1/(1+exp(-0.36336)) = {expected:.5f}; the reference text's "
           f"printed 0.516 is an arithmetic slip (it would need a log-odds "
           f"of 0.064)")


def test_criterion_1b_walkthrough_model_formula():
    fit = injected_star_fit()
    detail = mb.predict_detail(fit, "Greg Fields", "Jonathan Walsh",
                               "Zerg", "Terran", "Xel'Naga Caverns")
    eta_ok = abs(detail["eta"] - 0.36336) < 1e-3
    p_expected = mb.sigmoid(detail["eta"])
    ok = eta_ok and abs(detail["probability"] - 0.59006) < 5e-4 \
        and detail["probability"] == p_expected
    report("1b", ok,
           f"log-odds {detail['eta']:.5f} (reference value 0.36336), "
           f"probability {detail['probability']:.5f} via 1/(1+exp(-eta))")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for seed in ORACLE_SEEDS:
        d = pinned_small_league(seed)
        data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
        fit = mb.fit_irls(data, FitOptions(tolerance=1e-12, max_iterations=200))
        assert fit.converged
        oracle_beta, _, grad_norm = gd_maximize(data)
        assert grad_norm <= 1e-10, f"oracle failed to converge on seed {seed}"
        worst = max(worst, float(np.max(np.abs(fit.coefficients - oracle_beta))))
    ok = worst < 1e-6
    report(2, ok, f"{len(ORACLE_SEEDS)} instances, worst per-coordinate "
                  f"difference vs gradient-descent oracle {worst:.2e} (< 1e-6)")


def test_criterion_3_symmetry_suite():
    _, d = simple_league(200, n_players=14, n_maps=3, n=800)
    idx = mb.build_parameter_index(d, min_games=4)
    fit = mb.fit_irls(mb.build_design(d, idx))
    rng = np.random.default_rng(17)
    players = sorted(d.players) + ["visitor"]
    worst = 0.0
    for _ in range(1000):
        i, j = rng.choice(len(players), size=2, replace=False)
        r1, r2 = mb.RACES[rng.integers(3)], mb.RACES[rng.integers(3)]
        m = idx.maps[int(rng.integers(len(idx.maps)))]
        a = mb.win_probability(fit, players[i], players[j], r1, r2, m)
        b = mb.win_probability(fit, players[j], players[i], r2, r1, m)
        worst = max(worst, abs(a + b - 1.0))
    complement_ok = worst < 1e-12

    matchup_cols = set(idx.matchup_columns.values())
    rows_ok = True
    for r in d.records:
        row = encode_row(r, idx)
        swapped = MatchRecord(1 - r.winner, r.player2, r.race2, r.player1,
                              r.race1, r.map_name, r.date, r.duration)
        if encode_row(swapped, idx) != {c: -s for c, s in row.items()}:
            rows_ok = False
        if r.race1 == r.race2 and set(row) & matchup_cols:
            rows_ok = False
    ok = complement_ok and rows_ok
    report(3, ok, f"1000 pairings, worst |P + P_swapped - 1| = {worst:.2e} "
                  f"(< 1e-12); swapped rows negate exactly; same-race rows "
                  f"carry no matchup entry")


def test_criterion_4a_consistency_as_specified():
    # 50 players, 200 games each (5000 games), effects N(0,1)
    rng = np.random.default_rng(7000)
    truth = mb.random_league(50, 3, rng, skill_sd=1.0, matchup_sd=1.0)
    d = mb.generate(truth, 5000, rng)
    idx = mb.build_parameter_index(d, min_games=6)
    data = mb.build_design(d, idx)
    fit = mb.fit_irls(data)
    err, _ = mb.truth_error(fit, truth)

    # every player clears the threshold, so the component's anchor is the
    # only one; express the truth in its gauge and keep only the part of
    # the error the observed design identifies
    (anchor,) = idx.anchored_players
    beta_true = np.zeros(idx.p)
    for player, col in idx.player_columns.items():
        beta_true[col] = truth.player_skills[player] - truth.player_skills[anchor]
    for key, col in idx.matchup_columns.items():
        beta_true[col] = truth.matchup_effects[key]
    X = per_game(data)
    observed = np.bincount(X.indices, minlength=data.p) > 0
    X = X.toarray()[:, observed]
    rank = int(np.linalg.matrix_rank(X))
    deficiency = X.shape[1] - rank
    null = scipy.linalg.null_space(X)
    e = (fit.coefficients - beta_true)[observed]
    e -= null @ (null.T @ e)

    # the covariance is pinv(info), so its pseudo-inverse is info itself
    pi = fit.fitted_probabilities(data)
    info = X.T @ ((pi * (1.0 - pi))[:, None] * X)
    se = np.sqrt(np.diag(np.linalg.pinv(info, hermitian=True)))
    z = float(np.max(np.abs(e) / se))
    wald = float(e @ info @ e)
    z_bound = float(scipy.stats.norm.ppf(1 - 0.001 / (2 * rank)))
    wald_bound = float(scipy.stats.chi2.ppf(0.999, rank))
    ok = deficiency == 2 and z <= z_bound and wald <= wald_bound
    report("4a", ok,
           f"50 players x 200 games each, one anchor: the design has rank "
           f"{rank} of {X.shape[1]} columns (deficient by {deficiency}, one "
           f"flat direction per race without an anchored player); "
           f"truth_error {err:.3f}; largest identified error "
           f"{np.max(np.abs(e)):.3f} against a median standard error of "
           f"{np.median(se):.3f}, so the reference bound of 0.15 lies below "
           f"one standard error at this sample size; max |z| {z:.2f} "
           f"(<= {z_bound:.2f}, Bonferroni 0.001 over {rank}), Wald "
           f"{wald:.1f} (<= chi2_{rank}(0.999) = {wald_bound:.1f})")


def test_criterion_4b_consistency_identified_configuration():
    # same 50-player league plus a large zero-skill casual base: the
    # anchored players pin every race-level direction and are correctly
    # specified, leaving all remaining coefficients identified
    truth, d = casual_base_league(80_000, n_pro_games=170_000, n_pros=50,
                                  casuals_per_race=2600)
    idx = mb.build_parameter_index(d, min_games=6)
    fit = mb.fit_irls(mb.build_design(d, idx))
    err, table = mb.truth_error(fit, truth)
    ok = fit.converged and err < 0.15
    report("4b", ok,
           f"50 ranked players, effects N(0,1), anchored casual base, "
           f"n={len(d)}: max abs error over {len(table)} identified "
           f"coefficients = {err:.3f} (< 0.15)")


def test_criterion_5_diagnostic_calibration():
    rejections = 0
    phis = []
    for rep in range(200):
        rng = np.random.default_rng(50_000 + rep)
        truth = mb.random_league(20, 3, rng, skill_sd=1.0, matchup_sd=1.0)
        d = mb.generate(truth, 2000, rng)
        data = mb.build_design(d, mb.build_parameter_index(d, min_games=6))
        fit = mb.fit_irls(data)
        if mb.hosmer_lemeshow(fit, data).p_value < 0.05:
            rejections += 1
        phis.append(mb.pearson_dispersion(fit, data).phi)
    rate = rejections / 200
    mean_phi = float(np.mean(phis))

    rng = np.random.default_rng(123)
    null_truth = mb.random_league(20, 3, rng, skill_sd=0.0, matchup_sd=0.0)
    null_d = mb.generate(null_truth, 2000, rng)
    cv = mb.k_fold_cv(null_d, 10, FitOptions(), 6, seed=11)

    ok = (0.01 <= rate <= 0.12) and (0.9 <= mean_phi <= 1.1) \
        and (0.42 <= cv.test_mean <= 0.58)
    report(5, ok,
           f"200 well-specified replications (n=2000): calibration-test "
           f"rejection rate {rate:.3f} (in [0.01, 0.12]), mean dispersion "
           f"{mean_phi:.4f} (in [0.9, 1.1]); null-data CV test accuracy "
           f"{cv.test_mean:.4f} (in [0.42, 0.58])")


def null_league_with_casuals(seed, n_pro_games=2910, n_pros=12,
                             casuals_per_race=10, casual_games=3, n_maps=3):
    truth, d = casual_base_league(seed, n_pro_games=n_pro_games, n_pros=n_pros,
                                  casuals_per_race=casuals_per_race,
                                  casual_games=casual_games, n_maps=n_maps,
                                  skill_sd=0.0, matchup_sd=0.0)
    return d


def test_criterion_6a_bootstrap_null_calibration():
    d = null_league_with_casuals(60_003)
    assert len(d) == 3000
    summary = mb.bootstrap_balance(d, 500, FitOptions(), 6, seed=3)
    tails = {pair: summary.tail_prob[pair] for pair in mb.CANONICAL_PAIRS}
    in_box = all(0.35 <= t <= 0.65 for t in tails.values())

    # across replications the null tail probability is close to uniform,
    # so its average sits near one half
    means = []
    for rep in range(12):
        rep_d = null_league_with_casuals(61_000 + rep, n_pro_games=960,
                                         casuals_per_race=8)
        rep_summary = mb.bootstrap_balance(rep_d, 60, FitOptions(), 6, seed=rep)
        means.extend(rep_summary.tail_prob.values())
    grand_mean = float(np.mean(means))
    ok = in_box and 0.35 <= grand_mean <= 0.65
    report("6a", ok,
           f"null league (n=3000, B=500): tail probabilities "
           f"{[round(t, 3) for t in tails.values()]} all in [0.35, 0.65]; "
           f"mean over 12 small replications {grand_mean:.3f}")


def test_criterion_6b_duplicated_rows_as_specified():
    _, d = simple_league(77, n=800, n_players=16, matchup_sd=0.5)
    doubled = Dataset.from_records(tuple(d.records) + tuple(d.records))
    idx = mb.build_parameter_index(d, min_games=6)
    doubled_idx = mb.build_parameter_index(doubled, min_games=6)
    data = mb.build_design(d, idx)
    doubled_data = mb.build_design(doubled, doubled_idx)
    fit = mb.fit_irls(data)
    doubled_fit = mb.fit_irls(doubled_data)
    n, p = data.n, fit.p_effective
    pi_gap = float(np.max(np.abs(
        doubled_fit.fitted_probabilities(doubled_data)[:n]
        - fit.fitted_probabilities(data))))

    # same MLE, twice the Pearson chi-square, over 2n - p instead of n - p
    phi = mb.pearson_dispersion(fit, data).phi
    phi_dup = mb.pearson_dispersion(doubled_fit, doubled_data).phi
    predicted = phi * 2 * (n - p) / (2 * n - p)
    identity_gap = abs(phi_dup - predicted) / predicted

    summary = mb.bootstrap_dispersion(doubled, 200, FitOptions(), 6, seed=5)
    ok = doubled_idx == idx and pi_gap < 1e-12 and identity_gap < 1e-12 \
        and 0.9 <= summary.mean <= 1.1
    report("6b", ok,
           f"every game entered twice: same index, fitted probabilities "
           f"agree within {pi_gap:.1e}; dispersion {phi:.5f} becomes "
           f"{phi_dup:.5f} = phi*2(n-p)/(2n-p) with n={n}, p={p} (relative "
           f"gap {identity_gap:.1e} < 1e-12); bootstrap mean dispersion "
           f"{summary.mean:.4f} (SD {summary.sd:.3f}) in [0.9, 1.1]; the "
           f"reference bound > 1.3 cannot be met, since duplication keeps the "
           f"fit and doubles the Pearson chi-square, so phi_dup <= phi")


def test_criterion_7_lasso_checks():
    d = pinned_small_league(3004)
    data = mb.build_design(d, mb.build_parameter_index(d, min_games=3))
    ir = mb.fit_irls(data, FitOptions(tolerance=1e-12, max_iterations=200))
    la = mb.fit_lasso(data, FitOptions(l1_lambda=0.0, tolerance=1e-10,
                                       max_iterations=500))
    zero_diff = float(np.max(np.abs(ir.coefficients - la.coefficients)))

    big = mb.fit_lasso(data, FitOptions(l1_lambda=1e6))
    all_zero = bool(np.all(big.coefficients == 0.0))

    kkt_ok = True
    for lam, fit_data in ((0.3, data),):
        fit = mb.fit_lasso(fit_data, FitOptions(l1_lambda=lam, max_iterations=300))
        X = per_game(fit_data)
        g = X.T @ (fit_data.response - fit.fitted_probabilities(fit_data))
        observed = np.bincount(X.indices, minlength=fit_data.p) > 0
        zero = (fit.coefficients == 0.0) & observed
        nonzero = fit.coefficients != 0.0
        if zero.any() and np.max(np.abs(g[zero])) > lam + 1e-6:
            kkt_ok = False
        if nonzero.any() and np.max(
            np.abs(g[nonzero] - lam * np.sign(fit.coefficients[nonzero]))
        ) > 1e-6:
            kkt_ok = False

    _, noisy = noise_league(91)
    anchored = mb.build_parameter_index(noisy, min_games=6).anchored_players
    idx_free = mb.build_parameter_index(noisy, min_games=1,
                                        ensure_identifiable=False)
    noisy_data = mb.build_design(noisy, idx_free)
    grid = mb.default_lambda_grid(noisy_data, num=50)
    lam = mb.select_lambda_cv(noisy_data, 10, grid, seed=7)
    cv_fit = mb.fit_lasso(noisy_data, FitOptions(l1_lambda=lam,
                                                 max_iterations=300))
    overlap = mb.zero_overlap(set(anchored), cv_fit)

    ok = zero_diff < 1e-6 and all_zero and kkt_ok and overlap >= 0.8
    report(7, ok,
           f"lambda=0 matches the Newton fit within {zero_diff:.2e} (< 1e-6); "
           f"lambda=1e6 gives the all-zero vector: {all_zero}; subgradient "
           f"optimality within 1e-6: {kkt_ok}; CV-selected lambda {lam:.3f} "
           f"zeroes {overlap:.0%} of the 30 one-game noise players (>= 80%)")


def test_criterion_8_descriptive_arithmetic():
    stats = mb.describe(table_counts_dataset())
    ratio_tp = stats.win_ratios[("Terran", "Protoss")]
    ratio_tz = stats.win_ratios[("Terran", "Zerg")]
    month = stats.monthly_race_trend["2010-09"]["Protoss"]
    ok = (
        ratio_tp == 121 / 233
        and round(ratio_tp, 7) == 0.5193133
        and ratio_tz == 132 / 265
        and round(ratio_tz, 7) == 0.4981132
        and month[0] == 16
        and round(month[1], 5) == 0.37209
    )
    report(8, ok,
           f"constructed tables: Terran-over-Protoss ratio {ratio_tp:.7f} "
           f"(= 121/233 exactly), Terran-over-Zerg {ratio_tz:.7f} (= 132/265), "
           f"September share of Protoss players {month[1]:.5f} (16/43)")


def test_criterion_9_cli_determinism(tmp_path):
    from matchbalance.cli import main

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    games = tmp_path / "games.csv"
    run("simulate", "--players", 12, "--maps", 2, "--games", 400,
        "--seed", 9, "--out", games, "--truth", tmp_path / "t1.json")
    run("simulate", "--players", 12, "--maps", 2, "--games", 400,
        "--seed", 9, "--out", tmp_path / "games2.csv", "--truth",
        tmp_path / "t2.json")
    pairs = [(games, tmp_path / "games2.csv"),
             (tmp_path / "t1.json", tmp_path / "t2.json")]

    for args, out_names in (
        (("fit", "--input", games, "--min-games", 4), ("fit.json",)),
        (("describe", "--input", games), ("st.json", "st_games_per_player.csv",
                                          "st_pair_wins.csv",
                                          "st_monthly_trend.csv")),
        (("cv", "--input", games, "--folds", 4, "--seed", 3,
          "--min-games", 4), ("cv.json",)),
        (("bootstrap", "balance", "--input", games, "-B", 15, "--seed", 21,
          "--min-games", 4), ("bb.json", "bb_draws.csv")),
    ):
        for rep in ("r1", "r2"):
            (tmp_path / rep).mkdir(exist_ok=True)
            prefix = out_names[0].split(".")[0].rstrip("_")
            out = tmp_path / rep / out_names[0] if len(out_names) == 1 \
                else tmp_path / rep / prefix
            run(*args, "--out", out)
        for name in out_names:
            a = (tmp_path / "r1" / name)
            b = (tmp_path / "r2" / name)
            pairs.append((a, b))

    mismatched = [str(a.name) for a, b in pairs if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    report(9, ok, f"{len(pairs)} repeated artifacts byte-identical"
                  + (f"; mismatches: {mismatched}" if mismatched else ""))
