"""Property tests of the design encoder's invariants.

Swapping the two sides of every game negates the design, reordering
records reorders its rows, and a CSV round trip changes nothing.  Row
takes of a dataset's codes, as bootstrap draws and CV folds make them,
index and encode exactly as the record-by-record oracle does.
"""
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord
from matchbalance.design import _encode, _index
from oracles import encode_records, index_records

PLAYERS = [f"player_{i}" for i in range(7)]
MAPS = ["Antiga", "Metalopolis", "Xel'Naga, Caverns"]  # a comma exercises CSV quoting

# fixed examples, so every run checks the same cases
encoder_settings = settings(max_examples=60, deadline=None, derandomize=True,
                            database=None)


@st.composite
def records(draw):
    player1, player2 = draw(st.lists(st.sampled_from(PLAYERS), min_size=2,
                                     max_size=2, unique=True))
    return MatchRecord(
        winner=draw(st.integers(0, 1)),
        player1=player1,
        race1=draw(st.sampled_from(mb.RACES)),
        player2=player2,
        race2=draw(st.sampled_from(mb.RACES)),
        map_name=draw(st.sampled_from(MAPS)),
        date=draw(st.dates(dt.date(2010, 1, 1), dt.date(2012, 12, 31))),
        duration=draw(st.integers(0, 4000)),
    )


datasets = st.lists(records(), min_size=1, max_size=40).map(Dataset.from_records)
min_games = st.integers(1, 8)


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
    assert swapped.X.nnz == data.X.nnz
    assert np.array_equal(swapped.X.toarray(), -data.X.toarray())
    assert np.array_equal(swapped.response, 1 - data.response)


@encoder_settings
@given(datasets, min_games, st.randoms(use_true_random=False))
def test_permuting_records_permutes_rows(d, m, rnd):
    idx, data = encode(d, m)
    order = list(range(len(d)))
    rnd.shuffle(order)
    idx_perm, permuted = encode(Dataset.from_records(d.records[i] for i in order), m)
    assert idx_perm == idx
    assert np.array_equal(permuted.X.toarray(), data.X.toarray()[order])
    assert np.array_equal(permuted.response, data.response[order])


@encoder_settings
@given(datasets, min_games)
def test_csv_round_trip_encodes_identically(d, m):
    idx, data = encode(d, m)
    idx_back, back = encode(mb.parse_matches(mb.dataset_to_csv(d)), m)
    assert idx_back == idx
    assert np.array_equal(back.X.toarray(), data.X.toarray())
    assert np.array_equal(back.response, data.response)


def assert_same_design(data, expected):
    for a, b in ((data.X.indptr, expected.X.indptr), (data.X.indices, expected.X.indices),
                 (data.X.data, expected.X.data), (data.response, expected.response)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert data.X.shape == expected.X.shape


@encoder_settings
@given(datasets, min_games, st.booleans(), st.data())
def test_coded_row_takes_match_the_record_oracle(d, m, identifiable, draw):
    # training rows repeat and omit records, as a bootstrap draw does, and come
    # from a prefix, so held-out rows often hold players and maps they lack
    prefix = draw.draw(st.integers(1, len(d)))
    rows = draw.draw(st.lists(st.integers(0, prefix - 1), min_size=1, max_size=2 * len(d)))
    held_out = draw.draw(st.lists(st.integers(0, len(d) - 1), max_size=len(d)))
    train, test = ([d.records[i] for i in r] for r in (rows, held_out))
    codes = d._codes.take(np.array(rows))
    idx = _index(codes, m, identifiable)
    assert idx == index_records(train, m, identifiable)
    assert idx == mb.build_parameter_index(Dataset.from_records(train), m,
                                           ensure_identifiable=identifiable)
    assert_same_design(_encode(codes, idx), encode_records(train, idx))
    assert_same_design(_encode(d._codes.take(np.array(held_out, dtype=np.intp)), idx),
                       encode_records(test, idx, strict=False))
    try:
        expected = encode_records(test, idx)
    except mb.EncodingError as exc:
        with pytest.raises(mb.EncodingError) as raised:
            mb.build_design(Dataset.from_records(test), idx)
        assert str(raised.value) == str(exc)
    else:
        assert_same_design(mb.build_design(Dataset.from_records(test), idx), expected)
