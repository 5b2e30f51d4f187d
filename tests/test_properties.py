"""Property tests of the columnar dataset, the design encoder and the fit.

Swapping the two sides of every game negates the design, reordering
records reorders its rows, and a CSV round trip changes nothing.  Row
takes of a dataset, which repeat and omit rows as a bootstrap draw
does, index and encode exactly as the record-by-record oracle does,
and filtering, summaries, id sets, records and equality of the columns
agree with record loops.  The design's structural nullity equals its dense rank
deficiency.  The design's distinct rows with their game and win counts
give the per-row X'WX, score and deviance.  The fit keeps swap symmetry
of the fitted probabilities, does not change in any bit when the
records are reordered, and entering every game twice doubles its
deviance and nothing else.  A fit survives its JSON artifact bit for
bit.  Accuracy at the 0.5 threshold, its linear predictor unclipped, is
bitwise the accuracy with |eta| clipped to the fit's cap.  A design
fitted in a stack with others, in any order, gives every bit of the fit
it gives alone, also beside designs that are stabilized, run to the
iteration limit or fail to solve.  Games picked from a
dataset, indexed from their counts on its distinct coded rows and taken
as a subset of the dataset's design (as every bootstrap draw and
cross-validation fold is), give every bit of the index, the distinct
rows and the no-data columns of the same games taken row by row; read
per game, each design's linear predictor is bitwise the
record-by-record design's product, signed zeros included.
"""
import datetime as dt
import functools
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance.design import _columns, _design, _index, _nullity
from matchbalance import glm
from matchbalance.glm import FitError, fit_from_obj, fit_to_obj, sigmoid
from helpers import pinned_small_league
from matchbalance.jsonio import dumps
from oracles import (
    accuracy_clipped,
    dense_newton_fit,
    describe_records,
    encode_records,
    filter_records,
    games_per_player_records,
    index_records,
    per_game,
)

PLAYERS = [f"player_{i}" for i in range(7)]
MAPS = ["Antiga", "Metalopolis", "Xel'Naga, Caverns"]  # a comma exercises CSV quoting

# fixed examples, so every run checks the same cases
encoder_settings = settings(max_examples=60, deadline=None, derandomize=True,
                            database=None)


@st.composite
def records(draw, races=mb.RACES):
    player1, player2 = draw(st.lists(st.sampled_from(PLAYERS), min_size=2,
                                     max_size=2, unique=True))
    return MatchRecord(
        winner=draw(st.integers(0, 1)),
        player1=player1,
        race1=draw(st.sampled_from(races)),
        player2=player2,
        race2=draw(st.sampled_from(races)),
        map_name=draw(st.sampled_from(MAPS)),
        date=draw(st.dates(dt.date(2010, 1, 1), dt.date(2012, 12, 31))),
        duration=draw(st.integers(0, 4000)),
    )


datasets = st.lists(records(), min_size=1, max_size=40).map(Dataset.from_records)
# games tagged with races outside the three, as raw input may be
raw_datasets = st.lists(records([*mb.RACES, "Random", "random"]), min_size=1,
                        max_size=40).map(Dataset.from_records)
min_games = st.integers(1, 8)


@st.composite
def contested(draw):
    """Games whose every pairing was both won and lost, plus repeats with drawn winners.

    Each design row then occurs with both responses, so no direction
    separates the outcomes and the maximum-likelihood fit is finite.
    """
    base = draw(st.lists(records(), min_size=1, max_size=20))
    repeats = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, 1)),
                            max_size=40))
    return Dataset.from_records([replace(r, winner=w) for r in base for w in (0, 1)]
                                + [replace(base[i], winner=w) for i, w in repeats])


@st.composite
def leagues(draw):
    """Games in up to three leagues with no player in common, so the
    opponent graph has several components."""
    games = draw(st.lists(st.tuples(records(), st.integers(0, 2)), min_size=1, max_size=40))
    return Dataset.from_records(replace(r, player1=f"{g}{r.player1}", player2=f"{g}{r.player2}")
                                for r, g in games)


def swap(r):
    return MatchRecord(1 - r.winner, r.player2, r.race2, r.player1, r.race1,
                       r.map_name, r.date, r.duration)


def encode(d, m):
    idx = mb.build_parameter_index(d, m)
    return idx, mb.build_design(d, idx)


@encoder_settings
@given(datasets, min_games)
def test_swapping_sides_negates_the_design(d, m):
    idx, data = encode(d, m)
    swapped = mb.build_design(Dataset.from_records(swap(r) for r in d.records), idx)
    X, X_swapped = per_game(data), per_game(swapped)
    assert X_swapped.nnz == X.nnz
    assert np.array_equal(X_swapped.toarray(), -X.toarray())
    assert np.array_equal(swapped.response, 1 - data.response)


@encoder_settings
@given(datasets, min_games, st.randoms(use_true_random=False))
def test_permuting_records_permutes_rows(d, m, rnd):
    idx, data = encode(d, m)
    order = list(range(len(d)))
    rnd.shuffle(order)
    idx_perm, permuted = encode(Dataset.from_records(d.records[i] for i in order), m)
    assert idx_perm == idx
    assert np.array_equal(per_game(permuted).toarray(), per_game(data).toarray()[order])
    assert np.array_equal(permuted.response, data.response[order])


@encoder_settings
@given(datasets, min_games)
def test_csv_round_trip_encodes_identically(d, m):
    idx, data = encode(d, m)
    idx_back, back = encode(mb.parse_matches(mb.dataset_to_csv(d)), m)
    assert idx_back == idx
    assert np.array_equal(per_game(back).toarray(), per_game(data).toarray())
    assert np.array_equal(back.response, data.response)


def assert_same_design(data, expected):
    """``data`` read per game is ``expected``, a per-game CSR design and its responses."""
    (X, response), (X_expected, response_expected) = (per_game(data), data.response), expected
    for a, b in ((X.indptr, X_expected.indptr), (X.indices, X_expected.indices),
                 (X.data, X_expected.data), (response, response_expected)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert X.shape == X_expected.shape


@encoder_settings
@given(datasets, min_games, st.booleans(), st.data())
def test_coded_row_takes_match_the_record_oracle(d, m, identifiable, draw):
    # training rows repeat and omit records, as a bootstrap draw does, and come
    # from a prefix, so held-out rows often hold players and maps they lack
    prefix = draw.draw(st.integers(1, len(d)))
    rows = draw.draw(st.lists(st.integers(0, prefix - 1), min_size=1, max_size=2 * len(d)))
    held_out = draw.draw(st.lists(st.integers(0, len(d) - 1), max_size=len(d)))
    train, test = ([d.records[i] for i in r] for r in (rows, held_out))
    take = d._take(np.array(rows))
    idx = mb.build_parameter_index(take, m, ensure_identifiable=identifiable)
    assert idx == index_records(train, m, identifiable)
    assert idx == mb.build_parameter_index(Dataset.from_records(train), m,
                                           ensure_identifiable=identifiable)
    assert_same_design(mb.build_design(take, idx), encode_records(train, idx))
    # a CV test fold: the held-out games' subset of d's design under idx
    held_out_design = _design(d, *_columns(d, idx), idx).subset(np.array(held_out, np.intp))
    assert_same_design(held_out_design, encode_records(test, idx, strict=False))
    try:
        expected = encode_records(test, idx)
    except mb.EncodingError as exc:
        with pytest.raises(mb.EncodingError) as raised:
            mb.build_design(Dataset.from_records(test), idx)
        assert str(raised.value) == str(exc)
    else:
        assert_same_design(mb.build_design(Dataset.from_records(test), idx), expected)


def draw_cases(d, take, idx, full, expected, m):
    """The cases a counted draw must get right, each with whether this draw holds it."""
    counts, drawn = mb.games_per_player(d), mb.games_per_player(take)
    component = {p: i for i, c in enumerate(idx.components) for p in c}
    return {
        "a player anchored in the full data reaches min_games":
            any(counts[p] < m <= n for p, n in drawn.items()),
        "the draw loses a map": take.maps < d.maps,
        "a component splits": any(len({component[p] for p in c if p in component}) > 1
                                  for c in full.components),
        "same-race games between anchored players give empty rows":
            bool((np.diff(expected.X.indptr) == 0).any()),
    }


def assert_same_games(data, expected):
    """Every bit of the distinct rows, their counts and each game's row,
    sign and outcome."""
    assert data.X.shape == expected.X.shape and data.n == expected.n
    for a, b in ((data.X.indptr, expected.X.indptr), (data.X.indices, expected.X.indices),
                 (data.X.data, expected.X.data), (data.games, expected.games),
                 (data.wins, expected.wins), (data.row, expected.row),
                 (data.sign, expected.sign), (data.response, expected.response)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@encoder_settings
@given(leagues(), min_games, st.data())
def test_counted_games_give_the_row_take_design(d, m, draw):
    # a CV training fold, indexed from its game counts on the dataset's
    # distinct coded rows and taken as a subset of the dataset's design under
    # that index, gives every bit of the index, the distinct rows and the
    # no-data columns of its row take; a bootstrap draw or a lambda-selection
    # fold, a subset of the dataset's design under the whole dataset's index,
    # gives every bit of the row take's design under that index; the rows
    # repeat, omit and reorder games
    rows = np.array(draw.draw(st.lists(st.integers(0, len(d) - 1), min_size=1,
                                       max_size=2 * len(d))))
    take = d._take(rows)
    idx, full = mb.build_parameter_index(take, m), mb.build_parameter_index(d, m)
    expected = mb.build_design(take, idx)
    for case, holds in draw_cases(d, take, idx, full, expected, m).items():
        if holds:
            event(case)

    # the distinct coded rows group exactly, also unfiltered rows and a
    # filter_valid take, whose race table is wider than its rows
    raw = draw.draw(raw_datasets)
    for data in (d, raw, mb.filter_valid(raw)):
        coded, label, winner = data._coded
        assert np.array_equal(coded, np.unique(data._rows[:, :5], axis=0))
        assert np.array_equal(coded[label], data._rows[:, :5])
        assert np.array_equal(winner, data._rows[:, 5])

    counted_idx, *columns = _index(d, np.bincount(d._coded[1][rows]), m)
    assert counted_idx == idx
    counted = _design(d, *columns, idx).subset(rows)
    assert_same_games(counted, expected)
    X_take = encode_records(take.records, idx)[0]
    assert glm._Block(counted).no_data == tuple(
        np.flatnonzero(np.bincount(X_take.indices, minlength=idx.p) == 0).tolist())
    subset, expected_subset = mb.build_design(d, full).subset(rows), mb.build_design(take, full)
    assert_same_games(subset, expected_subset)
    whole, *columns = _index(d, np.bincount(d._coded[1]), m)
    assert whole == full
    drawn = _design(d, *columns, full).subset(rows)
    assert_same_games(drawn, expected_subset)
    # read per game, each is the take's design encoded record by record, also
    # where beta gives zeros: at 0, and at whole numbers, whose sums cancel exactly
    rng = np.random.default_rng(len(rows))
    X_full = encode_records(take.records, full)[0]
    for data, X in ((expected, X_take), (counted, X_take), (subset, X_full),
                    (drawn, X_full)):
        for beta in (rng.normal(0.0, 1.0, data.p), np.zeros(data.p),
                     rng.integers(-2, 3, data.p).astype(float)):
            assert data.linear_predictor(beta).tobytes() == (X @ beta).tobytes()


def in_order(x):
    """Dicts as lists of items, recursively, so that key order is compared too."""
    return [(k, in_order(v)) for k, v in x.items()] if isinstance(x, dict) else x


@encoder_settings
@given(raw_datasets, st.data())
def test_columnar_dataset_matches_the_record_oracles(raw, draw):
    # a take repeats and omits rows, as a bootstrap draw does, and keeps the
    # full tables, so it holds codes of players, maps and tags it does not use
    rows = draw.draw(st.lists(st.integers(0, len(raw) - 1), max_size=2 * len(raw)))
    take = raw._take(np.array(rows, dtype=np.intp))
    records = [raw.records[i] for i in rows]
    assert take.records == tuple(records)
    assert take == Dataset.from_records(records)
    assert (take == raw) == (take.records == raw.records)
    logged = Dataset.from_records(records, [(raw.records[0], "logged")])
    assert take != logged
    assert take.players == {p for r in records for p in (r.player1, r.player2)}
    assert take.maps == {r.map_name for r in records}
    assert in_order(mb.games_per_player(take)) == in_order(games_per_player_records(records))
    for d in (raw, take, logged):
        filtered, expected = mb.filter_valid(d), filter_records(d)
        if len(filtered) < len(d):
            with pytest.raises(ValueError, match="filtered"):
                mb.describe(d)
        assert filtered.records == expected.records
        assert filtered.filter_log == expected.filter_log
        assert filtered == expected and mb.filter_valid(filtered) == filtered
        assert filtered.players == expected.players and filtered.maps == expected.maps
        assert (in_order(vars(mb.describe(filtered)))
                == in_order(vars(describe_records(expected))))


def nullity_input(d, m, identifiable):
    """The design of ``d`` (anchoring by ``m``) read per game, restricted to
    the columns that hold data, its player column count and the fit."""
    data = mb.build_design(d, mb.build_parameter_index(d, m, ensure_identifiable=identifiable))
    X = per_game(data)
    active = np.flatnonzero(np.bincount(X.indices, minlength=data.p) > 0)
    X = X[:, active]
    return X, int(np.searchsorted(active, len(data.index.player_columns))), data


nullity_designs = st.tuples(
    st.lists(records(), min_size=1, max_size=60).map(Dataset.from_records),
    st.integers(1, 20), st.booleans())


# b met anchored a once, on the only TvP game; b and c met twice, TvT: a
# stack's ground must be each block's own for the root's tree game to count
GROUNDED_ROOT = (Dataset.from_records([
    MatchRecord(1, "b", "Terran", "a", "Protoss", "M", dt.date(2011, 1, 1), 600),
    MatchRecord(1, "b", "Terran", "c", "Terran", "M", dt.date(2011, 1, 2), 600),
    MatchRecord(0, "b", "Terran", "c", "Terran", "M", dt.date(2011, 1, 3), 600)]), 2, True)


@encoder_settings
@given(nullity_designs, st.lists(nullity_designs, max_size=3), st.integers(0, 3))
@example(GROUNDED_ROOT, [GROUNDED_ROOT], 1)
def test_structural_nullity_equals_the_dense_rank_deficiency(design, others, at):
    # ``design`` alone, then placed at ``at`` in a block-diagonal stack of ``others``
    X, players, data = nullity_input(*design)
    dense = X.toarray()
    expected = X.shape[1] - (np.linalg.matrix_rank(dense) if dense.size else 0)
    alone = _nullity(X, (X.T @ X).tocsr(), np.array([X.shape[1]]), np.array([players]))
    assert alone.tolist() == [expected]
    fit = mb.fit_irls(data)
    assert fit.stabilized == (expected > 0) == dense_newton_fit(data)[4]

    blocks = [nullity_input(*other)[:2] for other in others]
    blocks.insert(min(at, len(blocks)), (X, players))
    stack = scipy.sparse.block_diag([b for b, _ in blocks], format="csr")
    nullity = _nullity(stack, (stack.T @ stack).tocsr(),
                       np.array([b.shape[1] for b, _ in blocks]),
                       np.array([n for _, n in blocks]))
    for (b, n), stacked in zip(blocks, nullity.tolist()):
        dense = b.toarray()
        assert stacked == b.shape[1] - (np.linalg.matrix_rank(dense) if dense.size else 0)
        assert stacked == _nullity(b, (b.T @ b).tocsr(), np.array([b.shape[1]]),
                                   np.array([n])).tolist()[0]


@st.composite
def repeated(draw):
    """Games plus repeats of some of them, each repeat with its sides
    swapped or not, plus a same-race game between two players of one
    game each on a map of its own: with ``min_games`` >= 2 an empty row
    and three matchup columns without data."""
    base = draw(st.lists(records(), min_size=1, max_size=25))
    repeats = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.booleans()),
                            min_size=1, max_size=25))
    lone = replace(base[0], player1="lone_1", race1="Zerg", player2="lone_2",
                   race2="Zerg", map_name="Lone")
    return Dataset.from_records(base + [swap(base[i]) if swapped else base[i]
                                        for i, swapped in repeats] + [lone])


@encoder_settings
@given(repeated(), st.integers(2, 8), st.booleans(), st.randoms(use_true_random=False))
def test_distinct_rows_give_the_per_row_newton_system(d, m, identifiable, rnd):
    # without ensure_identifiable a component may keep no anchor: rank-deficient
    data = mb.build_design(d, mb.build_parameter_index(d, m, ensure_identifiable=identifiable))
    beta = np.random.default_rng(rnd.getrandbits(32)).normal(0.0, 1.5, data.p)
    eta = data.linear_predictor(beta)
    pi, y, X_games = sigmoid(eta), data.response, per_game(data)
    gram = (X_games.T @ X_games.multiply((pi * (1.0 - pi))[:, None])).toarray()
    terms = np.abs(X_games).T @ np.abs(y - pi)  # the size of the summands of the score
    deviance = 2.0 * np.sum(np.logaddexp(0.0, np.where(y == 1, -eta, eta)))

    X, games, wins = data.X, data.games, data.wins
    assert X.shape[0] < data.n and games.sum() == data.n
    assert np.array_equal(X.data ** 2, np.ones(X.nnz)) and X.has_sorted_indices
    assert np.all(X.data[X.indptr[:-1][np.diff(X.indptr) > 0]] == 1.0)  # oriented
    assert np.all((0 <= wins) & (wins <= games))
    pi_rows = sigmoid(X @ beta)
    gram_rows = (X.T @ X.multiply((games * pi_rows * (1.0 - pi_rows))[:, None])).toarray()
    assert np.max(np.abs(gram_rows - gram)) <= 1e-12 * np.max(np.abs(gram))
    assert np.all(np.abs(mb.score(beta, data) - X_games.T @ (y - pi)) <= 1e-12 * terms)
    assert -2.0 * mb.log_likelihood(beta, data) == pytest.approx(deviance, rel=1e-12)


@encoder_settings
@given(datasets, min_games)
def test_fit_keeps_swap_symmetry_of_fitted_probabilities(d, m):
    idx, data = encode(d, m)
    swapped = mb.build_design(Dataset.from_records(swap(r) for r in d.records), idx)
    pi = mb.fit_irls(data).fitted_probabilities(data)
    pi_swapped = mb.fit_irls(swapped).fitted_probabilities(swapped)
    assert np.max(np.abs(pi + pi_swapped - 1.0)) <= 1e-12


@encoder_settings
@given(contested(), min_games, st.randoms(use_true_random=False))
def test_fit_keeps_record_order_invariance(d, m, rnd):
    idx, data = encode(d, m)
    order = list(range(len(d)))
    rnd.shuffle(order)
    permuted = mb.build_design(Dataset.from_records(d.records[i] for i in order), idx)
    fit, fit_permuted = mb.fit_irls(data), mb.fit_irls(permuted)
    # The fit sums over the design's distinct rows in the order of their
    # keys, with integer game and win counts, so the record order reaches
    # no operand and no order of summation: every bit stays, including the
    # directions that the ridge picks in a stabilized fit.
    assert fit.coefficients.tobytes() == fit_permuted.coefficients.tobytes()
    assert (fit.fitted_probabilities(data)[order].tobytes()
            == fit_permuted.fitted_probabilities(permuted).tobytes())
    assert (fit.deviance, fit.iterations, fit.stabilized) == \
        (fit_permuted.deviance, fit_permuted.iterations, fit_permuted.stabilized)


@encoder_settings
@given(contested(), min_games)
def test_fit_on_every_game_entered_twice_doubles_only_the_deviance(d, m):
    # the index stays the one of the games entered once (README acceptance 6b)
    idx, data = encode(d, m)
    fit = mb.fit_irls(data)
    twice = mb.fit_irls(mb.build_design(Dataset.from_records(d.records * 2), idx))
    # every count doubles, and doubling is exact in floating point
    assert twice.coefficients.tobytes() == fit.coefficients.tobytes()
    assert (twice.deviance, twice.iterations, twice.stabilized) == \
        (2.0 * fit.deviance, fit.iterations, fit.stabilized)


@encoder_settings
@given(leagues(), min_games, st.booleans())
def test_fit_survives_its_json_artifact(d, m, identifiable):
    # without ensure_identifiable a component may keep no anchor: a stabilized fit
    idx = mb.build_parameter_index(d, m, ensure_identifiable=identifiable)
    fit = mb.fit_irls(mb.build_design(d, idx))
    obj = json.loads(dumps(fit_to_obj(fit)))
    back = fit_from_obj(obj)
    assert back.index == idx
    assert back.coefficients.tobytes() == fit.coefficients.tobytes()
    assert (back.converged, back.stabilized, back.no_data_columns) == \
        (fit.converged, fit.stabilized, fit.no_data_columns)
    floats = [obj["fit"][key] for key in ("log_likelihood", "deviance", "l1_lambda")]
    floats += [e["estimate"] for e in obj["players"] + obj["matchups"]]
    assert all(type(x) is float for x in floats)


# coefficients at the scales where the clip could matter: beyond the cap,
# signed zeros, and below 1e-16, where the sigmoid rounds to 0.5 (a tie).
# A zero eta is always +0.0: ``linear_predictor`` adds +0.0 to a -0.0.
coefficient_scales = st.sampled_from([0.0, -0.0, 1e-17, 1.0, 10.0, 1e3])
EQUAL_SKILL = Dataset.from_records([
    MatchRecord(w, a, "Zerg", b, "Zerg", "M", dt.date(2011, 1, 1), 600)
    for a, b in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")) for w in (0, 1)])


@encoder_settings
@given(datasets, min_games, st.lists(st.tuples(coefficient_scales, st.floats(-1.0, 1.0)),
                                     min_size=1, max_size=30))
@example(EQUAL_SKILL, 1, [(1e-17, -1.0), (0.0, 1.0), (-0.0, 1.0)])
@example(EQUAL_SKILL, 1, [(1e3, 1.0), (1e3, -0.5), (10.0, 1.0)])
def test_accuracy_without_the_clip_is_the_clipped_accuracy(d, m, scaled):
    # the coefficients repeat to fill the columns
    _, data = encode(d, m)
    beta = np.resize([scale * unit for scale, unit in scaled], data.p)
    eta = np.abs(data.linear_predictor(beta))
    event(f"|eta| > cap: {bool((eta > glm._ETA_CAP).any())}")
    event(f"0 < |eta| < 1e-16: {bool(((0 < eta) & (eta < 1e-16)).any())}")
    event(f"eta == 0: {bool((eta == 0).any())}")
    assert glm._accuracy(beta, data).hex() == accuracy_clipped(beta, data).hex()


def _rec(winner, player1, race1, player2, race2, i=0, map_name="Antiga"):
    return MatchRecord(winner, player1, race1, player2, race2, map_name,
                       dt.date(2011, 1, 1), 600 + i)


# two players, thirteen games: its first Newton step is halved
HALVED = [(1, "b", "Terran", "a", "Protoss", 0), (0, "b", "Terran", "a", "Protoss", 0),
          (1, "b", "Protoss", "a", "Protoss", 0), (1, "a", "Protoss", "b", "Protoss", 0),
          (0, "b", "Zerg", "a", "Zerg", 0), (1, "b", "Protoss", "a", "Protoss", 0),
          (1, "b", "Protoss", "a", "Zerg", 1), (1, "a", "Zerg", "b", "Zerg", 0),
          (1, "b", "Protoss", "a", "Terran", 0), (1, "a", "Terran", "b", "Protoss", 0),
          (1, "b", "Protoss", "a", "Protoss", 1), (1, "a", "Zerg", "b", "Protoss", 1),
          (1, "a", "Zerg", "b", "Zerg", 0)]


STACK_OPTS = mb.FitOptions(max_iterations=20)


@functools.cache
def companions():
    """Designs fitted beside each random one: stabilized, with unobserved
    matchup columns, running to ``STACK_OPTS.max_iterations``, one whose
    Newton step is halved, and one whose conjugate gradients are planted
    to fail (``planted_cg``)."""
    pinned = pinned_small_league(3001)
    no_pvz = Dataset.from_records(r for r in pinned.records
                                  if {r.race1, r.race2} != {"Protoss", "Zerg"})
    # a beats b beats c beats d: separated, so the deviance falls toward 0
    chain = Dataset.from_records(_rec(1, p, "Terran", q, "Terran", i) for i in range(2)
                                 for p, q in (("a", "b"), ("b", "c"), ("c", "d")))
    halved = Dataset.from_records(_rec(*game[:5], i, map_name=f"M{game[5]}")
                                  for i, game in enumerate(HALVED))
    return [encode(pinned, 1)[1], encode(no_pvz, 3)[1], encode(chain, 1)[1],
            encode(halved, 1)[1], encode(pinned_small_league(3002), 3)[1]]


def planted_cg(fails, at_solve):
    """``glm._cg`` whose block of the design ``fails`` reports failure on its
    ``at_solve``-th solve; ``solves`` counts them and is reset per fit."""
    cg = glm._cg
    solves = [0]

    def planted(matrix, diagonal, rhs, stack, tolerance):
        x, solved = cg(matrix, diagonal, rhs, stack, tolerance)
        for j, block in enumerate(stack.blocks):
            if block.data is fails:
                solves[0] += 1
                solved[j] &= solves[0] != at_solve
        return x, solved

    return planted, solves


def fit_fields(fit):
    """Everything a stacked fit must reproduce bit for bit."""
    failed = isinstance(fit, FitError)
    fit = fit.result if failed else fit
    return (failed, fit.coefficients.tobytes(), fit.deviance.hex(),
            tuple(x.hex() for x in fit.deviance_path), fit.iterations, fit.converged,
            fit.stabilized, fit.no_data_columns)


@encoder_settings
@given(st.one_of(datasets, leagues()), min_games, st.permutations(range(6)))
def test_a_design_fits_the_same_alone_and_in_any_stack(d, m, order):
    designs = [encode(d, m)[1], *companions()]
    planted, solves = planted_cg(designs[-1], at_solve=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glm, "_cg", planted)
        alone = []
        for design in designs:
            solves[0] = 0
            alone += glm._fit_stacks([design], STACK_OPTS, lambda data, fit: fit)
        solves[0] = 0
        stacked = glm._fit_stacks([designs[i] for i in order], STACK_OPTS,
                                  lambda data, fit: fit)
    # the companions are what they claim to be
    stabilized, unobserved, separated, halved, failing = alone[1:]
    assert stabilized.stabilized and stabilized.converged
    assert unobserved.no_data_columns and not unobserved.stabilized and unobserved.converged
    assert separated.iterations == STACK_OPTS.max_iterations and not separated.converged
    assert halved.converged and not halved.stabilized
    assert isinstance(failing, FitError) and failing.result.iterations == 2
    for i, fit in zip(order, stacked):
        assert fit_fields(fit) == fit_fields(alone[i])
