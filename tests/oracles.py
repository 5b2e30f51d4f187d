"""Independent oracles the tests check the library against.

Each oracle reaches its answer by a different route than the code under
test: gradient ascent instead of Newton steps, a dense Cholesky Newton
solve instead of conjugate gradients on the sparse normal equations,
cyclic coordinate descent instead of proximal Newton steps for the L1
fit, adaptive quadrature
instead of incomplete-gamma evaluation, central differences instead of
the analytic score, direct per-row probability products instead of
the vectorized likelihood, per-record scalar lookups instead of the
sparse design for cross-validated prediction, coefficients read at their
index columns instead of the fit's name lookup for win-probability
queries, a clipped linear
predictor instead of the unclipped one for accuracy, a record-by-record
index and encoder (counters, union-find, dict lookups) instead of the
coded, vectorized ones, and a row-by-row CSV parser that keeps each row
as a tuple and codes whole columns against sorted tables, instead of
checking and coding chunks of columns as they are read, and synthetic
league truths drawn one call of the generator per symbol, instead of one
array per kind of symbol.
"""
import csv
import datetime as dt
import io
from collections import Counter, deque
from math import copysign, exp, gamma, log

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.special

from matchbalance.data import (_DATE, _MAX_DURATION, CSV_HEADER, RACES, Dataset,
                               DescriptiveStats, ParseError)
from matchbalance.design import (
    CANONICAL_PAIRS,
    EncodingError,
    ParameterIndex,
    build_design,
    build_parameter_index,
    canonical_orientation,
)
from matchbalance.glm import (_ETA_CAP, LAST_RESORT_RIDGE, MAX_STEP_HALVINGS, FitOptions,
                             fit_irls, log_likelihood, score, sigmoid)
from matchbalance.simulate import LeagueTruth


def gd_maximize(data, tol=1e-10, max_iter=100000):
    """Barzilai-Borwein gradient ascent on the same likelihood.

    Uses a non-monotone acceptance rule (max of the last 10 values,
    with absolute slack) so progress continues once log-likelihood
    changes drop below float resolution.  Columns with no observations
    stay at zero, matching the fitter's frozen-column convention.
    """
    active = np.bincount(per_game(data).indices, minlength=data.p) > 0
    beta = np.zeros(data.p)
    g = score(beta, data) * active
    step = 1e-3
    ll = log_likelihood(beta, data)
    recent = deque([ll], maxlen=10)
    for it in range(max_iter):
        gn = np.max(np.abs(g))
        if gn <= tol:
            return beta, it, gn
        ref = max(recent)
        s = min(step, 1e6)
        for _ in range(40):
            cand = beta + s * g
            ll_new = log_likelihood(cand, data)
            if ll_new >= ref - 1e-10:
                break
            s *= 0.5
        g_new = score(cand, data) * active
        db = cand - beta
        dg = g_new - g
        denom = -float(np.dot(db, dg))
        step = float(np.dot(db, db)) / denom if denom > 1e-300 else s * 2
        beta, g, ll = cand, g_new, ll_new
        recent.append(ll)
    return beta, max_iter, np.max(np.abs(g))


def dense_newton_fit(data, opts=FitOptions()):
    """Newton-Raphson with a dense Cholesky solve of every X'WX.

    The same iteration as ``fit_irls`` (eta cap, step halving, relative
    deviance stopping rule, no-data columns frozen at zero), but each
    direction comes from ``cho_factor`` on the densified X'WX; when the
    factorization fails or leaves a pivot at rounding level, that
    iteration retries with LAST_RESORT_RIDGE on the diagonal and the fit
    counts as stabilized.  Returns (beta, deviance, iterations, converged,
    stabilized).
    """
    X = per_game(data)
    active = np.flatnonzero(np.bincount(X.indices, minlength=data.p) > 0)
    X = X[:, active]
    y = data.response.astype(float)
    beta = np.zeros(data.p)
    deviance = -2.0 * log_likelihood(beta, data)
    stabilized = converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        eta = np.clip(data.linear_predictor(beta), -_ETA_CAP, _ETA_CAP)
        pi = sigmoid(eta)
        hessian = (X.T @ X.multiply((pi * (1.0 - pi))[:, None])).toarray()
        try:
            factor = scipy.linalg.cho_factor(hessian)
            # a pivot at rounding level is a zero pivot that rounding left positive
            if np.any(np.diag(factor[0]) ** 2
                      <= active.size * np.finfo(float).eps * np.diag(hessian)):
                raise scipy.linalg.LinAlgError("singular X'WX")
        except scipy.linalg.LinAlgError:
            stabilized = True
            factor = scipy.linalg.cho_factor(hessian + LAST_RESORT_RIDGE * np.eye(active.size))
        direction = np.zeros(data.p)
        direction[active] = scipy.linalg.cho_solve(factor, X.T @ (y - pi))
        step = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + step * direction
            candidate_dev = -2.0 * log_likelihood(candidate, data)
            if candidate_dev <= deviance:
                break
            step *= 0.5
        else:
            converged = True
            break
        rel_change = abs(deviance - candidate_dev) / max(deviance, 1e-10)
        beta, deviance = candidate, candidate_dev
        if rel_change < opts.tolerance:
            converged = True
            break
    return beta, deviance, iterations, converged, stabilized


def coordinate_descent_lasso(data, opts, warm_start=None):
    """L1-penalized fit by cyclic coordinate descent with soft thresholding.

    Each reweighting forms the working response of the weighted
    least-squares approximation and updates one coefficient at a time
    in closed form, with active-set sweeps over the nonzero
    coefficients between full passes; it stops when a full pass and
    the pass before the sweeps move no coefficient by ``opts.tolerance``.
    Columns with no observations stay at their start.  Returns
    (beta, iterations, converged).
    """
    lam = opts.l1_lambda
    X = per_game(data)
    by_column = X.tocsc()
    rows_flat = by_column.indices.astype(np.intp)
    signs_flat, bounds = by_column.data, by_column.indptr
    active_cols = np.flatnonzero(np.diff(bounds) > 0)
    y = data.response.astype(float)
    touched = X.multiply(X).T
    beta = np.zeros(data.p) if warm_start is None else warm_start.copy()
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        eta = data.linear_predictor(beta)
        eta_c = np.clip(eta, -_ETA_CAP, _ETA_CAP)
        pi = sigmoid(eta_c)
        w = pi * (1.0 - pi)
        resid = (y - pi) / w + (eta_c - eta)
        col_w = touched @ w

        def sweep(columns):
            max_delta = 0.0
            for j in columns:
                a = col_w[j]
                if a <= 0.0:
                    continue
                sl = slice(bounds[j], bounds[j + 1])
                rj, sj = rows_flat[sl], signs_flat[sl]
                u = np.sum(w[rj] * sj * resid[rj]) + a * beta[j]
                bj = copysign(max(abs(u) - lam, 0.0), u) / a
                delta = bj - beta[j]
                if delta != 0.0:
                    beta[j] = bj
                    resid[rj] -= sj * delta
                    max_delta = max(max_delta, abs(delta))
            return max_delta

        outer_delta = sweep(active_cols)
        for _ in range(1000):
            if sweep(active_cols[beta[active_cols] != 0.0]) < 0.25 * opts.tolerance:
                break
        if max(outer_delta, sweep(active_cols)) < opts.tolerance:
            converged = True
            break
    return beta, iterations, converged


def quad_chi_square_sf(x, df):
    """Upper-tail chi-square probability by adaptive quadrature of the density."""
    half = df / 2.0
    norm = 2.0 ** half * gamma(half)

    def density(t):
        return t ** (half - 1.0) * exp(-t / 2.0) / norm

    value, _err = scipy.integrate.quad(density, x, np.inf, limit=200)
    return value


def finite_diff_score(beta, data, h=1e-6):
    """Central-difference gradient of the log-likelihood."""
    out = np.zeros(data.p)
    for j in range(data.p):
        up = beta.copy()
        down = beta.copy()
        up[j] += h
        down[j] -= h
        out[j] = (log_likelihood(up, data) - log_likelihood(down, data)) / (2 * h)
    return out


def brute_force_log_likelihood(beta, rows, response):
    """Per-row Bernoulli product via explicit row dicts and math.exp."""
    total = 0.0
    for row, y in zip(rows, response):
        eta = 0.0
        for col, sign in row.items():
            eta += sign * beta[col]
        pi = 1.0 / (1.0 + exp(-eta))
        total += log(pi) if y == 1 else log(1.0 - pi)
    return total


def log_loss_logaddexp(eta, games, wins, starts):
    """The fit's per-block loss (``glm._log_loss``) in the form of one
    logaddexp per row: sum m log(1 + e^-|eta|) + k max(-eta, 0) + (m - k) max(eta, 0)."""
    return np.add.reduceat(games * np.logaddexp(0.0, -np.abs(eta))
                           + wins * np.maximum(-eta, 0.0)
                           + (games - wins) * np.maximum(eta, 0.0), starts)


def residual_expit(eta, games, wins):
    """(k - m pi, pi (1 - pi)) per row (``glm._residual``) from two expit
    calls, with 1 - pi taken as expit(-eta)."""
    pi, miss = scipy.special.expit(eta), scipy.special.expit(-eta)
    return wins * miss - (games - wins) * pi, pi * miss


def accuracy_clipped(beta, data):
    """Held-out accuracy (``glm._accuracy``) as it was computed when the
    cap on |eta| was a fit option: each game's sigmoid of eta clipped to
    +-``_ETA_CAP``, predicted at the 0.5 threshold, ties to player1."""
    pi = sigmoid(np.clip(data.linear_predictor(beta), -_ETA_CAP, _ETA_CAP))
    return float(np.mean((pi >= 0.5).astype(np.int8) == data.response))


def predict_record(fit, record):
    """0.5-threshold prediction by scalar lookup of each term.

    Players and maps the fit does not know contribute 0; ties predict
    that player1 wins.
    """
    eta = _skill(fit, record.player1) - _skill(fit, record.player2)
    pair, sign = canonical_orientation(record.race1, record.race2)
    if pair is not None and (record.map_name, pair) in fit.index.matchup_columns:
        eta += sign * float(fit.coefficients[fit.index.matchup_columns[record.map_name, pair]])
    return 1 if sigmoid(eta) >= 0.5 else 0


def _skill(fit, player):
    """A player's estimate, read at its column of the index; 0 for a player
    without one (anchored or unknown)."""
    col = fit.index.player_columns.get(player)
    return 0.0 if col is None else float(fit.coefficients[col])


def query_terms(fit, player1, player2, race1, race2, map_name):
    """(eta, player1's term, player2's term, matchup term) of a
    win-probability query, each read from ``coefficients`` at its column of
    the index, or the ValueError ``predict_detail`` raises for a query it
    cannot answer: one player on both sides, then an unrecognized race tag,
    then a cross-race game on a map the fit does not know.  A same-race
    game has matchup term 0.0 on any map."""
    if player1 == player2:
        raise ValueError(f"player1 and player2 are both {player1!r}")
    for tag in (race1, race2):
        if tag not in RACES:
            raise ValueError(f"unrecognized race tag {tag!r}")
    c1, c2, cm = _skill(fit, player1), -_skill(fit, player2), 0.0
    if race1 != race2:
        if (race1, race2) in CANONICAL_PAIRS:
            pair, sign = (race1, race2), 1.0
        else:
            pair, sign = (race2, race1), -1.0
        if (map_name, pair) not in fit.index.matchup_columns:
            raise ValueError(f"unknown map {map_name!r}")
        cm = sign * float(fit.coefficients[fit.index.matchup_columns[map_name, pair]])
    return c1 + c2 + cm, c1, c2, cm


def cv_accuracies(d, k, opts, min_games, seed):
    """Per-fold (train, test) accuracies of k-fold CV, scored record by record.

    Folds are drawn as ``k_fold_cv`` documents them: a seeded uniform
    permutation split into k near-equal parts.
    """
    rng = np.random.default_rng(seed)
    per_fold = []
    for fold in np.array_split(rng.permutation(len(d.records)), k):
        test_rows = set(fold.tolist())
        train = [r for i, r in enumerate(d.records) if i not in test_rows]
        test = [d.records[i] for i in sorted(test_rows)]
        train_d = Dataset.from_records(train)
        fit = fit_irls(build_design(train_d, build_parameter_index(train_d, min_games)),
                       opts)
        per_fold.append(tuple(
            sum(predict_record(fit, r) == r.winner for r in records) / len(records)
            for records in (train, test)
        ))
    return per_fold


def index_records(records, min_games, ensure_identifiable=True):
    """The anchoring rule applied record by record.

    Games are counted with a Counter and components found by
    union-find; a component without an anchor gets its fewest-games
    member, ties to the smallest id.
    """
    counts = Counter()
    parent = {}

    def root(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for r in records:
        for p in (r.player1, r.player2):
            counts[p] += 1
            parent.setdefault(p, p)
        parent[root(r.player1)] = root(r.player2)
    groups = {}
    for p in sorted(counts):
        groups.setdefault(root(p), set()).add(p)
    components = tuple(frozenset(g) for g in sorted(groups.values(), key=min))
    anchored = {p for p, c in counts.items() if c < min_games}
    if ensure_identifiable:
        for component in components:
            if not component & anchored:
                anchored.add(min(component, key=lambda p: (counts[p], p)))
    player_columns = {p: i for i, p in enumerate(sorted(set(counts) - anchored))}
    maps = tuple(sorted({r.map_name for r in records}))
    base = len(player_columns)
    return ParameterIndex(
        player_columns=player_columns,
        anchored_players=frozenset(anchored),
        matchup_columns={(m, pair): base + 3 * mi + pi
                         for mi, m in enumerate(maps)
                         for pi, pair in enumerate(CANONICAL_PAIRS)},
        maps=maps,
        p=base + 3 * len(maps),
        components=components,
    )


def per_game(data):
    """A design's games as a CSR matrix with a row per game, in game order:
    row ``data.row[i]`` of the distinct rows ``data.X`` times ``data.sign[i]``,
    its entries copied one run per game."""
    X = data.X
    lengths = np.diff(X.indptr)[data.row]
    indptr = np.r_[0, np.cumsum(lengths)].astype(np.intc)
    entry = np.repeat(X.indptr[data.row] - indptr[:-1], lengths) + np.arange(indptr[-1])
    return scipy.sparse.csr_array(
        (X.data[entry] * np.repeat(data.sign, lengths), X.indices[entry], indptr),
        shape=(data.n, data.p))


def encode_records(records, idx, strict=True):
    """Encode ``records`` in order, one record at a time, into a CSR design
    with a row per game, and return it with the responses.

    With ``strict`` a player or map the index does not know raises an
    EncodingError naming the record; otherwise it contributes nothing,
    as an anchored player does.  Unrecognized race tags always raise.
    """
    data, indices, indptr = [], [], [0]
    for i, r in enumerate(records):
        try:
            row = {}
            for player, sign in ((r.player1, 1), (r.player2, -1)):
                if player in idx.player_columns:
                    row[idx.player_columns[player]] = sign
                elif strict and player not in idx.anchored_players:
                    raise EncodingError(f"unknown player {player!r}")
            pair, sign = canonical_orientation(r.race1, r.race2)
            if pair is not None:
                if (r.map_name, pair) in idx.matchup_columns:
                    row[idx.matchup_columns[(r.map_name, pair)]] = sign
                elif strict:
                    raise EncodingError(f"unknown map {r.map_name!r}")
        except EncodingError as exc:
            raise EncodingError(
                f"record {i} ({r.player1} vs {r.player2} on {r.map_name}): {exc}"
            ) from exc
        for col in sorted(row):
            indices.append(col)
            data.append(float(row[col]))
        indptr.append(len(indices))
    X = scipy.sparse.csr_array(
        (np.array(data, dtype=float), np.array(indices, dtype=np.intc),
         np.array(indptr, dtype=np.intc)),
        shape=(len(records), idx.p),
    )
    return X, np.array([r.winner for r in records], dtype=np.int8)


def encode_row(r, idx):
    """Encode one record as a {column: sign} sparse row, through build_design."""
    X = per_game(build_design(Dataset.from_records([r]), idx))
    return dict(zip(X.indices.tolist(), X.data.astype(int).tolist()))


def filter_records(d):
    """``filter_valid`` record by record: keep the three races, log the rest."""
    kept, log = [], list(d.filter_log)
    for r in d.records:
        bad = sorted({tag for tag in (r.race1, r.race2) if tag not in RACES})
        if bad:
            log.append((r, "unrecognized race tag(s): " + ", ".join(repr(t) for t in bad)))
        else:
            kept.append(r)
    return Dataset.from_records(kept, log)


def resample_records(d, rng):
    """A bootstrap draw rebuilt from records: len(d) draws with replacement."""
    return Dataset.from_records(d.records[i] for i in rng.integers(0, len(d), size=len(d)))


def games_per_player_records(records):
    counts = Counter(p for r in records for p in (r.player1, r.player2))
    return dict(sorted(counts.items()))


def describe_records(d):
    """``describe`` by per-record sets and counters, one record at a time."""
    race_players = {race: set() for race in RACES}
    pair_freq, pair_wins, monthly = Counter(), Counter(), {}
    for r in d.records:
        race_players[r.race1].add(r.player1)
        race_players[r.race2].add(r.player2)
        pair_freq[tuple(sorted((r.race1, r.race2)))] += 1
        pair_wins[(r.race1, r.race2) if r.winner == 1 else (r.race2, r.race1)] += 1
        month = monthly.setdefault(f"{r.date.year:04d}-{r.date.month:02d}",
                                   {race: set() for race in RACES})
        month[r.race1].add(r.player1)
        month[r.race2].add(r.player2)
    counts = games_per_player_records(d.records)
    histogram = Counter((c - 1) // 5 for c in counts.values())
    win_ratios = {}
    for a in RACES:
        for b in RACES:
            freq = pair_freq.get(tuple(sorted((a, b))), 0)
            if a != b and freq:
                win_ratios[(a, b)] = pair_wins.get((a, b), 0) / freq
    trend = {}
    for key in sorted(monthly):
        total = sum(len(s) for s in monthly[key].values())
        trend[key] = {race: (len(s), len(s) / total) for race, s in monthly[key].items()}
    return DescriptiveStats(
        race_counts={race: len(race_players[race]) for race in RACES},
        games_per_player=counts,
        games_histogram={f"{5 * b + 1}-{5 * b + 5}": histogram[b] for b in sorted(histogram)},
        pair_frequencies=dict(sorted(pair_freq.items())),
        pair_wins=dict(sorted(pair_wins.items())),
        win_ratios=win_ratios,
        monthly_race_trend=trend,
    )


def _rows_dataset(rows):
    """Code rows of (winner, player1, race1, player2, race2, map, date
    ordinal, duration) against sorted tables built from whole columns."""
    winner, p1, r1, p2, r2, maps, dates, durations = zip(*rows) if rows else [()] * 8
    players = tuple(sorted(set(p1).union(p2)))
    races = RACES + tuple(sorted(set(r1).union(r2) - set(RACES)))
    map_table = tuple(sorted(set(maps)))
    codes = np.empty((len(rows), 6), dtype=np.intp)
    for j, (table, column) in enumerate(zip((players, players, races, races, map_table),
                                             (p1, p2, r1, r2, maps))):
        code = dict(zip(table, range(len(table))))
        codes[:, j] = np.fromiter(map(code.__getitem__, column), np.intp, len(column))
    codes[:, 5] = winner
    return Dataset(players, map_table, races, codes, np.array(dates, np.int64),
                   np.array(durations, np.int64))


def _date_ordinal_rowwise(text, line):
    try:
        if _DATE.fullmatch(text):
            return dt.date.fromisoformat(text).toordinal()
    except ValueError:
        pass
    raise ParseError(f"bad date {text!r}, expected YYYY-MM-DD", line)


def parse_matches_rowwise(source):
    """The row-by-row parser: each row is checked in turn, in the order the
    checks are listed, and kept as a tuple of fields until the end.  One
    csv.reader reads the whole source, a text source as one StringIO over
    it, and a CSV syntax error is a ParseError naming the reader's line."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)

    def rows_read():
        try:
            yield from reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None

    read = rows_read()
    try:
        header = next(read)
    except StopIteration:
        raise ParseError("empty input: header row required") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(
            f"bad header {header!r}, expected {','.join(CSV_HEADER)}", line=1
        )

    rows = []
    ordinals = {}
    for row in read:
        line = reader.line_num
        if not row:
            continue
        cells = [c.strip() for c in row]
        if tuple(cells) == CSV_HEADER:
            raise ParseError("duplicate header row", line)
        if len(cells) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(cells)}", line)
        winner_s, p1, r1, p2, r2, map_name, date_s, dur_s = cells
        if winner_s not in ("0", "1"):
            raise ParseError(f"winner must be 0 or 1, got {winner_s!r}", line)
        for name, value in (("player1", p1), ("race1", r1), ("player2", p2),
                            ("race2", r2), ("map", map_name)):
            if not value:
                raise ParseError(f"empty {name} field", line)
        if p1 == p2:
            raise ParseError(f"player1 and player2 are both {p1!r}", line)
        ordinal = ordinals.get(date_s)
        if ordinal is None:
            ordinal = ordinals[date_s] = _date_ordinal_rowwise(date_s, line)
        try:
            duration = int(dur_s)
        except ValueError:
            raise ParseError(f"bad duration {dur_s!r}, expected integer seconds", line) from None
        if duration < 0:
            raise ParseError(f"duration must be nonnegative, got {duration}", line)
        if duration > _MAX_DURATION:
            raise ParseError(f"duration {dur_s!r} is too large for a 64-bit integer", line)
        rows.append((int(winner_s), p1, r1, p2, r2, map_name, ordinal, duration))
    return _rows_dataset(rows)


def random_league_loop(n_players, n_maps, rng, *, skill_sd=1.0, matchup_sd=1.0,
                       schedule="uniform"):
    """``random_league`` with one generator call per skill, effect and race."""
    players = [f"player_{i:03d}" for i in range(n_players)]
    maps = [f"map_{j:02d}" for j in range(n_maps)]
    skills = {p: float(rng.normal(0.0, skill_sd)) if skill_sd > 0 else 0.0
              for p in players}
    effects = {
        (m, pair): float(rng.normal(0.0, matchup_sd)) if matchup_sd > 0 else 0.0
        for m in maps
        for pair in CANONICAL_PAIRS
    }
    races = {p: RACES[int(rng.integers(len(RACES)))] for p in players}
    return LeagueTruth(skills, effects, races, schedule=schedule)
