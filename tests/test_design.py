import datetime as dt
import json

import numpy as np
import pytest
import scipy.sparse

import matchbalance as mb
from matchbalance import design, diagnostics
from matchbalance.data import Dataset, MatchRecord
from matchbalance.glm import fit_from_obj, fit_to_obj
from matchbalance.jsonio import dumps
from helpers import simple_league
from oracles import encode_row, per_game


def record(p1, r1, p2, r2, map_name="M", winner=1):
    return MatchRecord(winner, p1, r1, p2, r2, map_name, dt.date(2011, 1, 1), 60)


def swap(r):
    return MatchRecord(1 - r.winner, r.player2, r.race2, r.player1, r.race1,
                       r.map_name, r.date, r.duration)


def test_index_thresholds_and_shape():
    _, d = simple_league(10, n_players=12, n_maps=3, n=600)
    idx = mb.build_parameter_index(d, min_games=6)
    counts = mb.games_per_player(d)
    for player in d.players:
        if counts[player] < 6:
            assert player in idx.anchored_players
    assert set(idx.player_columns) | idx.anchored_players == d.players
    assert not set(idx.player_columns) & idx.anchored_players
    assert len(idx.matchup_columns) == 3 * len(d.maps)
    assert idx.p == len(idx.player_columns) + 3 * len(d.maps)
    assert sorted(
        list(idx.player_columns.values()) + list(idx.matchup_columns.values())
    ) == list(range(idx.p))


def test_every_component_gets_an_anchor():
    # two disconnected player islands
    recs = [record("A", "Terran", "B", "Terran") for _ in range(10)]
    recs += [record("C", "Zerg", "D", "Zerg", map_name="N") for _ in range(10)]
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    assert len(idx.components) == 2
    for component in idx.components:
        assert component & idx.anchored_players


def test_force_anchor_fewest_games_then_lexicographic():
    recs = [record("A", "Terran", "B", "Terran") for _ in range(10)]
    recs += [record("A", "Terran", "C", "Terran") for _ in range(3)]
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    assert idx.anchored_players == {"C"}  # fewest games
    recs = [record("A", "Terran", "B", "Terran") for _ in range(10)]
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    assert idx.anchored_players == {"A"}  # tie broken by smallest id


def test_unobserved_matchup_columns_exist():
    d = Dataset.from_records([record("A", "Terran", "B", "Terran")] * 6)
    idx = mb.build_parameter_index(d, min_games=1)
    assert len(idx.matchup_columns) == 3
    assert idx.p == 1 + 3  # one unanchored player + three matchup columns


def test_empty_dataset_and_bad_min_games():
    with pytest.raises(ValueError):
        mb.build_parameter_index(Dataset.from_records([]), min_games=6)
    _, d = simple_league(11, n=50)
    with pytest.raises(ValueError):
        mb.build_parameter_index(d, min_games=0)


def test_encode_row_placement_and_signs():
    recs = [record("A", "Zerg", "B", "Terran", map_name="XN")] * 6
    recs += [record("B", "Terran", "C", "Protoss", map_name="XN")] * 6
    recs += [record("A", "Zerg", "C", "Protoss", map_name="XN")] * 6
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    anchored = next(iter(idx.anchored_players))

    r = record("A", "Zerg", "B", "Terran", map_name="XN")
    row = encode_row(r, idx)
    # (Zerg, Terran) is stored under its (Terran, Zerg) orientation with sign -1
    tz_col = idx.matchup_column("XN", ("Terran", "Zerg"))
    assert row[tz_col] == -1
    expected_players = {}
    if "A" not in idx.anchored_players:
        expected_players[idx.player_columns["A"]] = 1
    if "B" not in idx.anchored_players:
        expected_players[idx.player_columns["B"]] = -1
    assert {c: s for c, s in row.items() if c != tz_col} == expected_players

    canonical = record("B", "Terran", "A", "Zerg", map_name="XN")
    assert encode_row(canonical, idx)[tz_col] == 1


def test_same_race_rows_have_no_matchup_entry():
    _, d = simple_league(12, n=500)
    idx = mb.build_parameter_index(d, min_games=1)
    matchup_cols = set(idx.matchup_columns.values())
    for r in d.records:
        if r.race1 == r.race2:
            assert not set(encode_row(r, idx)) & matchup_cols


def test_swap_antisymmetry_exact():
    _, d = simple_league(13, n=400)
    idx = mb.build_parameter_index(d, min_games=4)
    for r in d.records:
        row = encode_row(r, idx)
        flipped = encode_row(swap(r), idx)
        assert flipped == {c: -s for c, s in row.items()}


def test_encode_errors_on_unknown_symbols():
    _, d = simple_league(14, n=100)
    idx = mb.build_parameter_index(d, min_games=1)
    known = sorted(d.players)
    with pytest.raises(mb.EncodingError, match="unknown player"):
        encode_row(record("nobody", "Terran", known[0], "Zerg"), idx)
    with pytest.raises(mb.EncodingError, match="unknown map"):
        encode_row(
            record(known[0], "Terran", known[1], "Zerg", map_name="nowhere"), idx
        )
    with pytest.raises(mb.EncodingError, match="race"):
        mb.canonical_orientation("random", "Terran")


def test_build_design_shape_and_responses():
    _, d = simple_league(15, n=350)
    idx = mb.build_parameter_index(d, min_games=6)
    data = mb.build_design(d, idx)
    assert data.n == 350
    assert np.array_equal(data.response,
                          np.array([r.winner for r in d.records], dtype=np.int8))
    # row i of the sparse matrix equals the sparse dict encoding
    for i in (0, 17, 349):
        row = encode_row(d.records[i], idx)
        X_row = per_game(data)[[i]]
        assert {int(c): int(s) for c, s in zip(X_row.indices, X_row.data)} == row
    dense = per_game(data).toarray()
    assert dense.shape == (350, idx.p)
    nnz_per_row = (dense != 0).sum(axis=1)
    assert nnz_per_row.max() <= 3
    assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}


def test_build_design_propagates_offender():
    _, d = simple_league(16, n=60)
    idx = mb.build_parameter_index(d, min_games=1)
    stranger = Dataset.from_records(
        list(d.records) + [record("stranger", "Terran", sorted(d.players)[0], "Zerg")]
    )
    with pytest.raises(mb.EncodingError, match="record 60"):
        mb.build_design(stranger, idx)


def test_encoding_errors_name_the_first_faulty_record():
    idx = mb.build_parameter_index(
        Dataset.from_records([record("A", "Terran", "B", "Zerg")] * 6), min_games=1)
    faulty = [record("A", "Terran", "B", "Zerg"), record("A", "Random", "B", "Zerg"),
              record("C", "Terran", "B", "Zerg", map_name="N")]
    with pytest.raises(mb.EncodingError,
                       match=r"^record 1 \(A vs B on M\): unrecognized race tag 'Random'$"):
        mb.build_design(Dataset.from_records(faulty), idx)
    with pytest.raises(mb.EncodingError, match=r"^record 0 \(C vs B on N\): unknown player 'C'$"):
        mb.build_design(Dataset.from_records(faulty[::-1]), idx)
    # cross-validation has no unknown symbols, but still rejects unknown races,
    # naming the record of the dataset it was given
    with pytest.raises(mb.EncodingError,
                       match=r"^record 1 \(A vs B on M\): unrecognized race tag 'Random'$"):
        mb.k_fold_cv(Dataset.from_records(faulty * 4), k=2, min_games=1)


def test_race_tags_are_scanned_once(monkeypatch):
    # once per build_design call, and once per k_fold_cv call, not per fold
    scans = []
    check = design._check

    def counted(*args):
        scans.append(args)
        check(*args)

    monkeypatch.setattr(design, "_check", counted)
    monkeypatch.setattr(diagnostics, "_check", counted)
    _, d = simple_league(18, n=60)
    mb.build_design(d, mb.build_parameter_index(d, min_games=1))
    assert len(scans) == 1
    mb.k_fold_cv(d, k=3, min_games=1)
    assert len(scans) == 2


def test_all_zero_row_for_anchored_same_race_game():
    d = Dataset.from_records([record("A", "Terran", "B", "Terran")])
    idx = mb.build_parameter_index(d, min_games=5)  # both anchored by threshold
    assert idx.anchored_players == {"A", "B"}
    data = mb.build_design(d, idx)
    assert data.X.nnz == 0
    fit = mb.fit_irls(data)
    assert fit.fitted_probabilities(data)[0] == 0.5


def test_row_keys_refuse_a_design_too_wide_for_int64():
    for p, fits in ((1_048_574, True), (1_048_575, False)):  # 2p + 2 = 2^21 - 2, 2^21
        # about the largest key: digits 2p - 1, 2 and 2p + 1
        slots, sign = np.array([[p - 3, p - 2, p - 1]]), np.array([1])
        X = scipy.sparse.csr_array(([1.0, -1.0, 1.0], [p - 3, p - 2, p - 1], [0, 3]),
                                   shape=(1, p))
        if fits:
            rows, games, wins, row, sign = design._merge(slots, sign, p, np.ones(1),
                                                         np.ones(1))
            assert (rows != X).nnz == 0 and games.tolist() == wins.tolist() == [1.0]
            assert row.tolist() == [0] and sign.tolist() == [1]
        else:
            with pytest.raises(ValueError, match="too many"):
                design._merge(slots, sign, p, np.ones(1), np.ones(1))


def test_index_json_round_trip():
    _, d = simple_league(17, n=200)
    idx = mb.build_parameter_index(d, min_games=6)
    fit = mb.fit_irls(mb.build_design(d, idx))
    back = fit_from_obj(json.loads(dumps(fit_to_obj(fit))))
    assert back.index == idx
    assert back.coefficients.tobytes() == fit.coefficients.tobytes()
