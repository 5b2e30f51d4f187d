"""The benchmark's workloads, each driven through matchbalance's public API.

A workload generates its leagues in :meth:`setup`, runs one unit of work
per :meth:`run_pass` (the timed section, which always starts from CSV
text or a CSV file), checks the outputs of that pass in :meth:`verify`
(untimed), and in a traced run replays from outside what the program
does inside (:meth:`extras`).  Gate failures are collected in
``problems``; any entry makes the run incorrect.

Spans are named ``<module>.<public function>``.  Replays of work the
program does internally carry their own names (``bootstrap.draw.*``,
``diagnostics.cv_fold_fit``) so they never mix with the direct calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import matchbalance as mb
from matchbalance import cli, jsonio
from matchbalance.glm import fit_to_obj
from matchbalance.report import build_report

import league

MIN_GAMES = 6
QUERY_STREAM = 1000  # queries are drawn from seeds [seed, season, QUERY_STREAM]
WARM_UP_ROWS = 2000


def warm_up(csv_text: str) -> None:
    """One small pass through parse, index, design and fit."""
    head = "".join(csv_text.splitlines(keepends=True)[: WARM_UP_ROWS + 1])
    d = mb.filter_valid(mb.parse_matches(head))
    mb.fit_irls(mb.build_design(d, mb.build_parameter_index(d, MIN_GAMES)))


def fit_path(tr, text):
    """parse -> filter -> index -> design -> fit_irls, each under its own span.

    Records the sizes and, when tracing, the per-row and per-iteration
    costs of the current job; returns (data, index, design, fit).
    """
    with tr.span("data.parse_matches"):
        raw = mb.parse_matches(text)
    with tr.span("data.filter_valid"):
        d = mb.filter_valid(raw)
    with tr.span("design.build_parameter_index"):
        idx = mb.build_parameter_index(d, MIN_GAMES)
    with tr.span("design.build_design"):
        X = mb.build_design(d, idx)
    with tr.span("glm.fit_irls"):
        fit = mb.fit_irls(X)
    tr.count("data.rows", len(d))
    tr.count("design.p", idx.p)
    tr.count("design.anchored", len(idx.anchored_players))
    tr.count("design.components", len(idx.components))
    tr.count("glm.iterations", fit.iterations)
    if tr.enabled:
        tr.count("data.parse_us_per_row",
                 1e6 * tr.by_job("data.parse_matches")[tr.job] / len(d))
        tr.count("design.build_us_per_row",
                 1e6 * tr.by_job("design.build_design")[tr.job] / len(d))
        tr.count("glm.s_per_iteration", tr.by_job("glm.fit_irls")[tr.job] / fit.iterations)
    return d, idx, X, fit


class Workload:
    name = ""
    unit = ""  # what one attempted operation is
    LEAGUES = 1  # inputs in rotation, one per pass
    REPEAT_GATE = False  # whether a gate compares two passes over one league

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, job: int, tr) -> tuple[int, int]:
        """Run the timed unit of work; return (attempted, failed) operations."""
        raise NotImplementedError

    def verify(self, job: int, tr) -> None:
        pass

    def after_passes(self, passes: int, tr) -> None:
        """Repeat league 0 untimed when no league ran twice and a gate needs it."""
        if self.REPEAT_GATE and passes <= self.LEAGUES:
            tr.job = job = self.LEAGUES * passes
            self.run_pass(job, tr)
            self.verify(job, tr)

    def extras(self, tr) -> None:
        pass

    def report_trace(self, tr) -> None:
        pass


class RateLarge(Workload):
    """Who is strongest, at scale: one season per pass, seasons in rotation."""

    name = "rate_large"
    unit = "season fits"
    # 2,000 players give p of about 1,810-1,840, clear of p = 2,048, where a
    # p x p array of doubles crosses glibc's 32 MiB mmap threshold cap and
    # peak RSS would jump with a few columns (see bench/README.md).
    LEAGUES, PLAYERS, MAPS, GAMES, S = 5, 2000, 4, 50_000, 1.0  # seasons
    QUERY_PAIRS = 10_000
    SCORE_BOUND = 1e-4  # max |score| over observed columns at the optimum
    SWAP_TOL = 1e-12

    def setup(self):
        self.stabilized_fits = 0
        self.seasons = []
        for k in range(self.LEAGUES):
            lg = league.identified([self.seed, k], self.PLAYERS, self.MAPS, self.GAMES,
                                   self.S, MIN_GAMES)
            rng = np.random.default_rng([self.seed, k, QUERY_STREAM])
            self.seasons.append((lg.csv, self._queries(rng, lg)))
        warm_up(self.seasons[0][0])

    def extras(self, tr):
        tr.count("glm.stabilized_fits", self.stabilized_fits)

    def _queries(self, rng, lg):
        seen = np.unique(np.concatenate([lg.p1, lg.p2]))
        a = rng.choice(seen, self.QUERY_PAIRS)
        b = rng.choice(seen, self.QUERY_PAIRS)
        b = np.where(a == b, seen[(np.searchsorted(seen, b) + 1) % seen.size], b)
        maps = rng.integers(0, self.MAPS, self.QUERY_PAIRS)
        queries = []
        for i, j, m in zip(a.tolist(), b.tolist(), maps.tolist()):
            pi, pj = lg.player_name(i), lg.player_name(j)
            ri, rj = league.RACES[lg.race[i]], league.RACES[lg.race[j]]
            queries.append((pi, pj, ri, rj, f"map_{m:02d}"))
            queries.append((pj, pi, rj, ri, f"map_{m:02d}"))
        return queries

    def run_pass(self, job, tr):
        text, queries = self.seasons[job % self.LEAGUES]
        self.last = None
        try:
            _, _, X, fit = fit_path(tr, text)
        except (mb.FitError, ValueError) as exc:
            self.problems.append(f"season {job % self.LEAGUES}: fitting raised {exc}")
            return 1, 1
        with tr.span("predict.rank_players"):
            ranking = mb.rank_players(fit)
        with tr.span("predict.win_probability"):
            if tr.enabled:
                probs, latency = [], []
                for q in queries:
                    t0 = time.perf_counter()
                    probs.append(mb.win_probability(fit, *q))
                    latency.append(time.perf_counter() - t0)
                for t in latency:
                    tr.count("predict.query_us", 1e6 * t)
            else:
                probs = [mb.win_probability(fit, *q) for q in queries]
        with tr.span("glm.fit_to_obj"):
            obj = fit_to_obj(fit)
        with tr.span("jsonio.dumps"):
            text_out = jsonio.dumps(obj)
        self.last = (X, fit, ranking, probs, text_out)
        return 1, 0 if fit.converged else 1

    def verify(self, job, tr):
        if self.last is None:
            return
        X, fit, ranking, probs, text_out = self.last
        self.last = None
        season = job % self.LEAGUES
        if not fit.converged:
            self.problems.append(f"season {season}: fit did not converge")
        if fit.stabilized:
            self.stabilized_fits += 1
            self.problems.append(f"season {season}: fit needed the last-resort ridge")
        observed = np.setdiff1d(np.arange(X.p), fit.no_data_columns)
        score_max = float(np.abs(mb.score(fit.coefficients, X)[observed]).max())
        if not score_max < self.SCORE_BOUND:
            self.problems.append(f"season {season}: max |score| {score_max:.3g} "
                                 f">= {self.SCORE_BOUND}")
        swap = np.abs(np.add(probs[0::2], probs[1::2]) - 1.0).max()
        if not swap <= self.SWAP_TOL:
            self.problems.append(f"season {season}: P(a,b) + P(b,a) off 1 by {swap:.3g}")
        values = [v for _, v in ranking[: len(fit.index.player_columns)]]
        if len(ranking) != len(fit.index.player_columns) + len(fit.index.anchored_players) \
                or any(x < y for x, y in zip(values, values[1:])):
            self.problems.append(f"season {season}: ranking is not complete and sorted")
        if json.loads(text_out)["fit"]["iterations"] != fit.iterations:
            self.problems.append(f"season {season}: fit JSON does not round-trip")
        tr.count("glm.score_max", score_max)
        tr.count("predict.queries", len(probs))
        tr.count("jsonio.bytes", len(text_out.encode()))


class BalanceBootstrap(Workload):
    """Is the game balanced: one case-resampling bootstrap per pass, leagues in rotation."""

    name = "balance_bootstrap"
    unit = "bootstrap draws"
    LEAGUES, PLAYERS, MAPS, GAMES, S = 4, 600, 3, 10_000, 1.5
    REPEAT_GATE = True
    B, JOBS = 25, 2
    MAX_FAILED = 0.2
    SD_MULTIPLE = 3.0  # bootstrap mean within this many SDs of the full-sample value
    PHASES = ("resample", "index", "design", "fit", "aggregate")
    REPLAY_DRAWS, ABBA = 5, 4  # draws per short run and replay; ABBA blocks

    def setup(self):
        self.texts = []
        for k in range(self.LEAGUES):
            lg = league.identified([self.seed, k], self.PLAYERS, self.MAPS, self.GAMES,
                                   self.S, MIN_GAMES)
            self.texts.append(lg.csv)
        self.first_draws = {}
        self.jobs = min(self.JOBS, len(os.sched_getaffinity(0)))
        warm_up(self.texts[0])

    def run_pass(self, job, tr):
        self.league = job % self.LEAGUES
        with tr.span("data.parse_matches"):
            raw = mb.parse_matches(self.texts[self.league])
        with tr.span("data.filter_valid"):
            self.data = mb.filter_valid(raw)
        self.summary = None
        c0 = time.process_time()
        try:
            with tr.span("bootstrap.bootstrap_balance"):
                self.summary = mb.bootstrap_balance(self.data, self.B, seed=self.seed,
                                                    jobs=self.jobs)
        except mb.BootstrapError as exc:
            self.problems.append(f"pass {job}: bootstrap_balance raised {exc}")
            return self.B, self.B
        self.cpu_s = time.process_time() - c0
        return self.B, self.summary.failed

    def _reference(self, tr, k):
        """Full-sample balance statistic of league k, outside the passes' spans."""
        saved, tr.job = tr.job, -1 - k
        fit = fit_path(tr, self.texts[k])[3]
        tr.job = saved
        return mb.aggregate_balance(fit).per_pair

    def verify(self, job, tr):
        s = self.summary
        if s is None:
            return
        k = job % self.LEAGUES
        tr.count("bootstrap.failed", s.failed)
        if s.failed > self.MAX_FAILED * s.B:
            self.problems.append(f"pass {job}: {s.failed} of {s.B} draws failed")
        if tr.enabled:
            wall = tr.by_job("bootstrap.bootstrap_balance")[job]
            tr.count("bootstrap.cpu_util", self.cpu_s / wall)
        if k in self.first_draws:
            if s.draws != self.first_draws[k]:
                self.problems.append(f"pass {job}: draws differ from league {k}'s first pass")
            return
        self.first_draws[k] = s.draws
        for pair, full in self._reference(tr, k).items():
            if not abs(s.mean[pair] - full) <= self.SD_MULTIPLE * s.sd[pair]:
                self.problems.append(
                    f"league {k} {pair[0]}/{pair[1]}: bootstrap mean {s.mean[pair]:.4g} "
                    f"is more than {self.SD_MULTIPLE} SDs ({s.sd[pair]:.3g}) from the "
                    f"full-sample {full:.4g}")

    def extras(self, tr):
        """A jobs=1 baseline on the last pass's league, then short jobs=1 runs
        alternated with replays of their draws.

        The short runs and the replays cover the first ``REPLAY_DRAWS`` draws
        and run in ABBA order, so that drift in the host's speed, which lasts
        seconds, weighs on both alike; their medians are compared.
        """
        k = self.league
        tr.job = -100
        with tr.span("bootstrap.bootstrap_balance.jobs1"):
            single = mb.bootstrap_balance(self.data, self.B, seed=self.seed, jobs=1)
        if single.draws != self.first_draws[k]:
            self.problems.append(f"league {k}: draws differ between jobs=1 and "
                                 f"jobs={self.jobs}")
        jobs1 = tr.by_job("bootstrap.bootstrap_balance.jobs1")[-100]
        tr.count("bootstrap.jobs1_s", jobs1)
        for job, wall in tr.by_job("bootstrap.bootstrap_balance").items():
            if job % self.LEAGUES == k:
                tr.count("bootstrap.parallel_speedup", jobs1 / wall)

        self.short_s, self.replay_s, self.replay_matched = [], [], []
        for n, step in enumerate(("jobs1", "replay", "replay", "jobs1") * self.ABBA):
            tr.job = -101 - n
            if step == "replay":
                self.replay_s.append(self._replay(tr, 1000 + n * self.REPLAY_DRAWS))
                continue
            with tr.span("bootstrap.bootstrap_balance.short"):
                mb.bootstrap_balance(self.data, self.REPLAY_DRAWS, seed=self.seed, jobs=1)
            wall = tr.by_job("bootstrap.bootstrap_balance.short")[tr.job]
            self.short_s.append(wall)
            tr.count("bootstrap.s_per_draw", wall / self.REPLAY_DRAWS)

    def _replay(self, tr, first_job):
        """Replay the first draws through public calls, one job each; return the phases' self time."""
        draws = self.first_draws[self.league]
        matched = 0
        for b in range(self.REPLAY_DRAWS):
            tr.job = first_job + b
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, b)))
            with tr.span("bootstrap.draw"):
                with tr.span("bootstrap.draw.resample"):
                    sample = mb.resample(self.data, rng)
                with tr.span("bootstrap.draw.index"):
                    idx = mb.build_parameter_index(sample, MIN_GAMES)
                with tr.span("bootstrap.draw.design"):
                    X = mb.build_design(sample, idx)
                with tr.span("bootstrap.draw.fit"):
                    fit = mb.fit_irls(X)
                with tr.span("bootstrap.draw.aggregate"):
                    stat = mb.aggregate_balance(fit)
            tr.count("bootstrap.draw.fit_iterations", fit.iterations)
            matched += stat.per_pair in draws
        self.replay_matched.append(matched)
        jobs = range(first_job, first_job + self.REPLAY_DRAWS)
        return sum(own for phase in self.PHASES
                   for job, own in tr.by_job(f"bootstrap.draw.{phase}").items() if job in jobs)

    def report_trace(self, tr):
        """Reconcile the replayed draws with the short jobs=1 runs."""
        n = self.REPLAY_DRAWS
        per_draw = statistics.median(self.short_s) / n
        phases = statistics.median(self.replay_s) / n
        overhead = tr.overhead_s / max(len(tr.spans), 1) * 6  # six spans per draw
        print(f"replayed draws: {min(self.replay_matched)} of {n} equal a timed draw "
              f"in every one of {len(self.replay_s)} replays")
        print(f"phase self times {phases:.6g} s/draw (median of {len(self.replay_s)} replays, "
              f"range {min(self.replay_s) / n:.6g}-{max(self.replay_s) / n:.6g}) vs "
              f"s_per_draw {per_draw:.6g} s (median of {len(self.short_s)} jobs=1 runs of "
              f"{n} draws, range {min(self.short_s) / n:.6g}-{max(self.short_s) / n:.6g}): "
              f"difference {phases - per_draw:+.3g} s ({(phases - per_draw) / per_draw:+.2%}), "
              f"tracing overhead {overhead:.3g} s/draw")


class BatteryCli(Workload):
    """Does the model deserve trust: the pipeline demo's CLI chain per pass, leagues in rotation."""

    name = "battery_cli"
    unit = "CLI steps"
    LEAGUES, PLAYERS, MAPS, GAMES, S = 3, 250, 3, 5000, 1.5
    REPEAT_GATE = True
    CV_FOLDS, CV_SEED = 10, 1
    SIM_PLAYERS, SIM_MAPS, SIM_GAMES = 60, 3, 3000
    # The lasso's cost varies 20-40% between leagues of one shape, so it is
    # traced here rather than timed as a workload (see bench/README.md).
    # A fixed grid keeps lambda_min away from the near-unpenalized fits whose
    # cost default_lambda_grid (scaled by each league's lambda_max) would vary.
    LASSO_FOLDS, LASSO_GRID = 3, np.geomspace(40.0, 1.0, 8)
    KKT_TOL = 1e-4

    def setup(self):
        self.chains = []
        for k in range(self.LEAGUES):
            lg = league.identified([self.seed, k], self.PLAYERS, self.MAPS, self.GAMES,
                                   self.S, MIN_GAMES)
            out = self.workdir / "battery" / str(k)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            (out / "games.csv").write_text(lg.csv, encoding="utf-8")
            self.chains.append((out, self._steps(lg, out)))
        self.first = {}
        warm_up(lg.csv)

    def _steps(self, lg, out):
        o = str(out)
        fit = ["--input", f"{o}/games.csv"]
        a, b = 0, 1  # the two most active players are always fitted
        return [
            ("simulate", ["simulate", "--players", str(self.SIM_PLAYERS), "--maps",
                          str(self.SIM_MAPS), "--games", str(self.SIM_GAMES), "--seed",
                          str(self.seed), "--schedule", "tournament_tail",
                          "--out", f"{o}/sim.csv", "--truth", f"{o}/sim_truth.json"]),
            ("ingest", ["ingest", *fit, "--out", f"{o}/clean.csv",
                        "--log", f"{o}/filter.json"]),
            ("describe", ["describe", *fit, "--out", f"{o}/stats"]),
            ("fit", ["fit", *fit, "--out", f"{o}/fit.json"]),
            ("rank", ["rank", "--fit", f"{o}/fit.json", "--out", f"{o}/rank.json"]),
            ("predict", ["predict", "--fit", f"{o}/fit.json",
                         "--player1", lg.player_name(a), "--race1", league.RACES[lg.race[a]],
                         "--player2", lg.player_name(b), "--race2", league.RACES[lg.race[b]],
                         "--map", "map_00"]),
            ("diagnose_lrt", ["diagnose", "lrt", *fit, "--out", f"{o}/lrt.json"]),
            ("diagnose_hl", ["diagnose", "hl", *fit, "--out", f"{o}/hl.json"]),
            ("diagnose_dispersion", ["diagnose", "dispersion", *fit,
                                     "--out", f"{o}/dispersion.json"]),
            ("diagnose_residuals", ["diagnose", "residuals", *fit,
                                    "--out", f"{o}/residuals.csv"]),
            ("cv", ["cv", *fit, "--folds", str(self.CV_FOLDS), "--seed",
                    str(self.CV_SEED), "--out", f"{o}/cv.json"]),
            ("bootstrap", ["bootstrap", "dispersion", *fit, "-B", "20", "--seed", "2",
                           "--jobs", "2", "--out", f"{o}/bdisp"]),
            ("report", ["report", "--fit", f"{o}/fit.json", "--rank", f"{o}/rank.json",
                        "--lrt", f"{o}/lrt.json", "--hl", f"{o}/hl.json",
                        "--dispersion", f"{o}/dispersion.json", "--cv", f"{o}/cv.json",
                        "--boot-dispersion", f"{o}/bdisp.json",
                        "--residuals", f"{o}/residuals.csv", "--out", f"{o}/report.txt"]),
        ]

    @staticmethod
    def _artifacts(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "games.csv"}

    def run_pass(self, job, tr):
        self.league = job % self.LEAGUES
        out, steps = self.chains[self.league]
        for name in self._artifacts(out):
            (out / name).unlink()
        self.exits, self.stdout = {}, {}
        for step, argv in steps:
            stdout, stderr = io.StringIO(), io.StringIO()
            with tr.span(f"cli.{step}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                self.exits[step] = cli.main(argv)
            self.stdout[step] = stdout.getvalue()
        failed = sum(code != 0 for code in self.exits.values())
        return len(steps), failed

    def verify(self, job, tr):
        for step, code in self.exits.items():
            if code != 0:
                self.problems.append(f"pass {job}: step {step} exited {code}")
        produced = self._artifacts(self.chains[self.league][0])
        produced["predict.stdout"] = self.stdout["predict"].encode()
        tr.count("cli.artifact_bytes", sum(len(v) for v in produced.values()))
        first = self.first.setdefault(self.league, produced)
        if produced != first:
            changed = sorted(k for k in produced.keys() | first.keys()
                             if produced.get(k) != first.get(k))
            self.problems.append(f"pass {job}: artifacts not byte-identical to league "
                                 f"{self.league}'s first pass: {changed}")

    def extras(self, tr):
        """The library calls behind fit, diagnose, cv, simulate and report, once."""
        tr.job = -1
        out = self.chains[self.league][0]
        d, _, X, fit = fit_path(tr, (out / "games.csv").read_text(encoding="utf-8"))
        with tr.span("glm.fit_to_obj"):
            obj = fit_to_obj(fit)
        with tr.span("jsonio.dumps"):
            tr.count("jsonio.bytes", len(jsonio.dumps(obj).encode()))
        with tr.span("diagnostics.lrt_vs_constant"):
            mb.lrt_vs_constant(fit, X)
        with tr.span("diagnostics.hosmer_lemeshow"):
            mb.hosmer_lemeshow(fit, X)
        with tr.span("diagnostics.pearson_dispersion"):
            mb.pearson_dispersion(fit, X)
        with tr.span("diagnostics.residuals_vs_fitted"):
            mb.residuals_vs_fitted(fit, X)
        with tr.span("diagnostics.k_fold_cv"):
            mb.k_fold_cv(d, self.CV_FOLDS, min_games=MIN_GAMES, seed=self.CV_SEED)
        # k training splits of the CV's size: the fold-fit share of k_fold_cv
        rng = np.random.default_rng(self.CV_SEED)
        for fold in np.array_split(rng.permutation(len(d)), self.CV_FOLDS):
            held_out = set(fold.tolist())
            with tr.span("diagnostics.cv_fold_fit"):
                train = mb.Dataset.from_records(
                    r for i, r in enumerate(d.records) if i not in held_out)
                idx = mb.build_parameter_index(train, MIN_GAMES)
                mb.fit_irls(mb.build_design(train, idx))
        cv_s = tr.by_job("diagnostics.k_fold_cv")[-1]
        tr.count("diagnostics.cv_other_s", cv_s - tr.by_job("diagnostics.cv_fold_fit")[-1])
        rng = np.random.default_rng(self.seed)
        with tr.span("simulate.random_league"):
            truth = mb.random_league(self.SIM_PLAYERS, self.SIM_MAPS, rng,
                                     schedule="tournament_tail")
        with tr.span("simulate.generate"):
            mb.generate(truth, self.SIM_GAMES, rng)
        tr.count("simulate.us_per_game",
                 1e6 * tr.by_job("simulate.generate")[-1] / self.SIM_GAMES)
        self._lasso(tr, d)
        artifacts = {k: jsonio.load_json(out / f"{k}.json")
                     for k in ("fit", "rank", "lrt", "hl", "dispersion", "cv", "bdisp")}
        with tr.span("report.build_report"):
            build_report(artifacts["fit"], lrt=artifacts["lrt"], hl=artifacts["hl"],
                         dispersion=artifacts["dispersion"], cv=artifacts["cv"],
                         boot_dispersion=artifacts["bdisp"], rank=artifacts["rank"],
                         residuals_path=str(out / "residuals.csv"))

    def _lasso(self, tr, d):
        """The L1 cross-check on anchoring: CV lambda selection, final fit, overlap."""
        X = mb.build_design(d, mb.build_parameter_index(d, 1, ensure_identifiable=False))
        with tr.span("glm.select_lambda_cv"):
            lam = mb.select_lambda_cv(X, self.LASSO_FOLDS, self.LASSO_GRID, self.seed)
        with tr.span("glm.fit_lasso"):
            fit = mb.fit_lasso(X, mb.FitOptions(l1_lambda=lam))
        anchored = mb.build_parameter_index(d, MIN_GAMES).anchored_players
        with tr.span("diagnostics.zero_overlap"):
            mb.zero_overlap(set(anchored), fit)
        if not fit.converged:
            self.problems.append("fit_lasso did not converge")
        if lam not in self.LASSO_GRID:
            self.problems.append(f"selected lambda {lam!r} is not on the grid")
        beta = fit.coefficients
        g = mb.score(beta, X)
        nz = beta != 0.0
        kkt = max(np.abs(g[nz] - lam * np.sign(beta[nz])).max(initial=0.0),
                  np.maximum(np.abs(g[~nz]) - lam, 0.0).max(initial=0.0))
        if not kkt <= self.KKT_TOL:
            self.problems.append(f"lasso KKT violated by {kkt:.3g} at lambda {lam:.4g}")
        tr.count("glm.lasso_iterations", fit.iterations)
        tr.count("glm.lasso_nonzero", int(nz.sum()))
        tr.count("glm.lasso_kkt_max", kkt)


WORKLOADS = {w.name: w for w in (RateLarge, BalanceBootstrap, BatteryCli)}
