import datetime as dt
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from helpers import simple_league
from oracles import query_terms


def injected_fit():
    """Fit object with hand-set coefficients for two stars on one map."""
    recs = []
    for i in range(6):
        recs.append(MatchRecord(i % 2, "Greg Fields", "Zerg", "Jonathan Walsh",
                                "Terran", "Xel'Naga Caverns",
                                dt.date(2011, 1, 1 + i), 1000 + i))
    # single-game filler soaks up the anchor so both stars own columns
    recs.append(MatchRecord(0, "filler", "Zerg", "Greg Fields", "Zerg",
                            "Xel'Naga Caverns", dt.date(2011, 1, 9), 500))
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=2)
    data = mb.build_design(d, idx)
    fit = mb.fit_irls(data)
    beta = fit.coefficients.copy()
    beta[idx.player_columns["Greg Fields"]] = 2.098
    beta[idx.player_columns["Jonathan Walsh"]] = 1.797
    # the map favors Zerg over Terran by 0.0632, stored under the
    # canonical (Terran, Zerg) orientation as its negation
    beta[idx.matchup_columns["Xel'Naga Caverns", ("Terran", "Zerg")]] = -0.0632
    return replace(fit, coefficients=beta)


def test_injected_walkthrough():
    fit = injected_fit()
    detail = mb.predict_detail(fit, "Greg Fields", "Jonathan Walsh",
                               "Zerg", "Terran", "Xel'Naga Caverns")
    assert detail["eta"] == pytest.approx(0.36336, abs=1e-3)
    assert detail["eta"] == pytest.approx(2.098 - 1.797 + 0.0632, abs=1e-12)
    assert detail["contributions"]["player1"] == pytest.approx(2.098)
    assert detail["contributions"]["player2"] == pytest.approx(-1.797)
    assert detail["contributions"]["matchup"] == pytest.approx(0.0632)
    assert detail["unknown_inputs"] == []
    # probability through the model formula: 1 / (1 + exp(-eta))
    assert detail["probability"] == pytest.approx(mb.sigmoid(0.36336), abs=5e-4)
    assert detail["probability"] == pytest.approx(0.59006, abs=5e-4)


def test_unknown_players_same_race_is_even_money():
    fit = injected_fit()
    p = mb.win_probability(fit, "nobody1", "nobody2", "Terran", "Terran",
                           "Xel'Naga Caverns")
    assert p == 0.5
    detail = mb.predict_detail(fit, "nobody1", "nobody2", "Terran", "Terran",
                               "Xel'Naga Caverns")
    assert set(detail["unknown_inputs"]) == {"player1", "player2"}


def test_anchored_player_is_known_but_contributes_zero():
    _, d = simple_league(40, n=400)
    idx = mb.build_parameter_index(d, min_games=6)
    if not idx.anchored_players:
        pytest.skip("league has no anchored players")
    fit = mb.fit_irls(mb.build_design(d, idx))
    anchored = sorted(idx.anchored_players)[0]
    ranked = sorted(idx.player_columns)[0]
    detail = mb.predict_detail(fit, anchored, ranked, "Terran", "Terran",
                               idx.maps[0])
    assert detail["unknown_inputs"] == []
    assert detail["contributions"]["player1"] == 0.0


def test_complement_identity_many_pairings():
    _, d = simple_league(41, n=600)
    idx = mb.build_parameter_index(d, min_games=4)
    fit = mb.fit_irls(mb.build_design(d, idx))
    rng = np.random.default_rng(2)
    players = sorted(d.players) + ["somebody_new"]
    for _ in range(500):
        p1, p2 = rng.choice(len(players), size=2, replace=False)
        r1, r2 = rng.choice(3, size=2)
        m = idx.maps[int(rng.integers(len(idx.maps)))]
        a = mb.win_probability(fit, players[p1], players[p2],
                               mb.RACES[r1], mb.RACES[r2], m)
        b = mb.win_probability(fit, players[p2], players[p1],
                               mb.RACES[r2], mb.RACES[r1], m)
        assert abs(a + b - 1.0) < 1e-12


def _answers(query, *fits):
    """Check that ``win_probability`` and ``predict_detail`` answer a query
    on each fit bitwise as ``query_terms`` does, or raise its ValueError
    message."""
    for fit in fits:
        try:
            expected = query_terms(fit, *query)
        except ValueError as exc:
            for answer in (mb.win_probability, mb.predict_detail):
                with pytest.raises(ValueError) as raised:
                    answer(fit, *query)
                assert str(raised.value) == str(exc), query
            continue
        eta, c1, c2, cm = expected
        p = mb.win_probability(fit, *query)
        detail = mb.predict_detail(fit, *query)
        got = (detail["eta"], *detail["contributions"].values())
        assert [v.hex() for v in got] == [v.hex() for v in expected], query
        assert list(detail["contributions"]) == ["player1", "player2", "matchup"]
        for probability in (p, detail["probability"]):
            assert type(probability) is float
            assert probability.hex() == mb.sigmoid(eta).hex(), query


def test_win_probability_is_predict_details_probability():
    """Both answer every query bitwise as the oracle reads the coefficients
    through the index: fitted, anchored and unknown players, every race
    pairing on known maps and on one the fit does not know, and each error."""
    _, d = simple_league(44, n=500)
    idx = mb.build_parameter_index(d, min_games=6)
    assert idx.anchored_players
    fit = mb.fit_irls(mb.build_design(d, idx))
    rng = np.random.default_rng(3)
    players = sorted(d.players) + ["somebody_new", "someone_else"]
    maps = list(idx.maps) + ["nowhere"]
    races = list(mb.RACES) + ["random"]
    errors = [("a", "a", "Terran", "Zerg", maps[0]),    # same player
              ("a", "a", "random", "Zerg", "nowhere"),  # ... before the race tag
              ("a", "b", "Terran", "random", maps[0]),  # race tag
              ("a", "b", "random", "Zerg", "nowhere"),  # ... before the map
              ("a", "b", "Zerg", "Terran", "nowhere")]  # unknown map
    queries = [(players[i], players[j], races[r1], races[r2], maps[m])
               for i, j, r1, r2, m in zip(rng.integers(len(players), size=600),
                                          rng.integers(len(players), size=600),
                                          rng.integers(len(races), size=600),
                                          rng.integers(len(races), size=600),
                                          rng.integers(len(maps), size=600))]
    anchored, fitted = sorted(idx.anchored_players)[0], sorted(idx.player_columns)[0]
    queries += [(p1, p2, r1, r2, m)
                for p1, p2 in ((anchored, fitted), (fitted, anchored),
                               (anchored, "somebody_new"), ("somebody_new", fitted))
                for r1 in mb.RACES for r2 in mb.RACES for m in maps]
    for query in errors + queries:
        _answers(query, fit)
    # a same-race game on a map the fit does not know has no matchup term
    same_race = mb.predict_detail(fit, fitted, anchored, "Zerg", "Zerg", "nowhere")
    assert same_race["contributions"]["matchup"] == 0.0


def test_fit_record_is_immutable():
    fit = injected_fit()
    with pytest.raises(FrozenInstanceError):
        fit.deviance = 0.0
    with pytest.raises(FrozenInstanceError):
        fit.coefficients = np.zeros(fit.index.p)
    with pytest.raises(ValueError):
        fit.coefficients[0] = 1.0
    query = ("Greg Fields", "Jonathan Walsh", "Zerg", "Terran", "Xel'Naga Caverns")
    before = mb.win_probability(fit, *query)  # builds the fit's lookup
    beta = fit.coefficients.copy()
    beta[fit.index.player_columns["Greg Fields"]] += 1.0
    moved = replace(fit, coefficients=beta)
    assert mb.win_probability(moved, *query) == mb.sigmoid(query_terms(moved, *query)[0])
    assert mb.win_probability(moved, *query) > before
    assert mb.win_probability(fit, *query) == before
    # the record holds its own copy: the caller's vector stays writable
    assert beta.flags.writeable and not moved.coefficients.flags.writeable
    beta[:] = 0.0
    assert mb.win_probability(replace(fit, coefficients=beta), *query) == 0.5
    assert moved.coefficients[fit.index.player_columns["Greg Fields"]] == 2.098 + 1.0
    _answers(query, fit, moved)


def test_common_shift_invariance():
    _, d = simple_league(42, n=300)
    idx = mb.build_parameter_index(d, min_games=4)
    fit = mb.fit_irls(mb.build_design(d, idx))
    shifted = fit.coefficients.copy()
    for col in idx.player_columns.values():
        shifted[col] += 3.7
    fit2 = replace(fit, coefficients=shifted)
    players = sorted(idx.player_columns)[:2]
    for m in idx.maps:
        a = mb.win_probability(fit, players[0], players[1], "Terran", "Zerg", m)
        b = mb.win_probability(fit2, players[0], players[1], "Terran", "Zerg", m)
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("answered_first", [False, True])
def test_predict_errors(answered_first):
    fit = injected_fit()
    if answered_first:  # the fit's lookup is built, and the errors stay
        mb.win_probability(fit, "a", "b", "Terran", "Zerg", "Xel'Naga Caverns")
    with pytest.raises(ValueError, match="unknown map"):
        mb.win_probability(fit, "a", "b", "Terran", "Zerg", "nowhere")
    with pytest.raises(ValueError, match="player1 and player2"):
        mb.win_probability(fit, "a", "a", "Terran", "Zerg", "Xel'Naga Caverns")
    with pytest.raises(ValueError, match="race"):
        mb.win_probability(fit, "a", "b", "random", "Zerg", "Xel'Naga Caverns")


def test_rank_players_order_and_anchored_tail():
    _, d = simple_league(43, n=700)
    idx = mb.build_parameter_index(d, min_games=6)
    fit = mb.fit_irls(mb.build_design(d, idx))
    ranking = mb.rank_players(fit)
    k = len(idx.player_columns)
    ranked, anchored = ranking[:k], ranking[k:]
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)
    assert [p for p, _ in anchored] == sorted(idx.anchored_players)
    assert all(v == 0.0 for _, v in anchored)
    # a common shift leaves the ranked order unchanged
    shifted = fit.coefficients.copy()
    for col in idx.player_columns.values():
        shifted[col] += 11.0
    ranking2 = mb.rank_players(replace(fit, coefficients=shifted))
    assert [p for p, _ in ranking2[:k]] == [p for p, _ in ranked]


def test_rank_players_ties_lexicographic():
    recs = [MatchRecord(i % 2, "zed", "Terran", "abe", "Terran", "M",
                        dt.date(2011, 1, 1), 9) for i in range(8)]
    recs += [MatchRecord(i % 2, "zed", "Terran", "cat", "Terran", "M",
                         dt.date(2011, 1, 2), 9) for i in range(8)]
    d = Dataset.from_records(recs)
    idx = mb.build_parameter_index(d, min_games=1)
    fit = mb.fit_irls(mb.build_design(d, idx))
    # perfectly balanced records give identical (zero) estimates
    ranking = mb.rank_players(fit)
    k = len(idx.player_columns)
    assert [p for p, _ in ranking[:k]] == sorted(p for p in idx.player_columns)


def test_rank_players_all_anchored():
    d = Dataset.from_records([
        MatchRecord(1, "A", "Terran", "B", "Terran", "M", dt.date(2011, 1, 1), 9)
    ])
    idx = mb.build_parameter_index(d, min_games=5)
    fit = mb.fit_irls(mb.build_design(d, idx))
    ranking = mb.rank_players(fit)
    assert ranking == [("A", 0.0), ("B", 0.0)]
