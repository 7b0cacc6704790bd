"""Tests for the named random streams and the bulk per-query draws.

The oracle of every vectorised draw is numpy itself: ``SeedSequence``,
``PCG64`` and ``default_rng(key).standard_normal``, bit for bit.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.rng import (
    RandomStreams,
    SeedTable,
    pcg64_states,
    seed_sequence_states,
    stable_hash,
    stable_hashes,
    standard_normal_rows,
)
from repro.simulator.ziggurat_tables import KI_DOUBLE


def test_same_seed_same_stream_is_reproducible():
    a = RandomStreams(seed=7).stream("arrivals").random(10)
    b = RandomStreams(seed=7).stream("arrivals").random(10)
    assert np.allclose(a, b)


def test_different_names_give_independent_streams():
    streams = RandomStreams(seed=7)
    a = streams.stream("arrivals").random(10)
    b = streams.stream("difficulty").random(10)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x").random(10)
    b = RandomStreams(seed=2).stream("x").random(10)
    assert not np.allclose(a, b)


def test_stream_is_cached_and_stateful():
    streams = RandomStreams(seed=0)
    first = streams.stream("x").random(5)
    second = streams.stream("x").random(5)
    # The same generator keeps advancing; draws must not repeat.
    assert not np.allclose(first, second)


def test_spawn_indexed_substreams_differ():
    streams = RandomStreams(seed=0)
    a = streams.spawn("worker", 0).random(5)
    b = streams.spawn("worker", 1).random(5)
    assert not np.allclose(a, b)


def test_getitem_is_alias_for_stream():
    streams = RandomStreams(seed=0)
    assert streams["abc"] is streams.stream("abc")


def test_reset_restores_initial_state():
    streams = RandomStreams(seed=3)
    first = streams.stream("x").random(5)
    streams.reset()
    again = streams.stream("x").random(5)
    assert np.allclose(first, again)


def test_stream_name_independent_of_pythonhashseed():
    # The key derivation must be stable (sha256-based), so two instances in
    # the same process (and across processes) agree.
    a = RandomStreams(seed=11).stream("load-balancer").random(3)
    b = RandomStreams(seed=11).stream("load-balancer").random(3)
    assert np.allclose(a, b)


# --------------------------------------------------------- bulk seeding oracle
EDGE_KEYS = [0, 1, 2**32 - 1]
keys_32 = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(keys_32, min_size=1, max_size=40))
def test_vectorised_states_equal_seed_sequence(keys):
    keys = keys + EDGE_KEYS
    states = seed_sequence_states(keys)
    expected = np.stack([np.random.SeedSequence(k).generate_state(4, np.uint64) for k in keys])
    assert states.dtype == np.uint64
    assert np.array_equal(states, expected)


def _bits(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.lists(keys_32, max_size=40), st.sampled_from([1, 2, 16, 17]))
def test_standard_normal_rows_equal_default_rng_bitwise(keys, width):
    keys = keys + EDGE_KEYS
    rows = standard_normal_rows(keys, width)
    expected = np.stack([np.random.default_rng(k).standard_normal(width) for k in keys])
    assert rows.shape == (len(keys), width)
    assert np.array_equal(_bits(rows), _bits(expected))


def test_standard_normal_rows_oracle_on_100k_keys():
    """Every row of 100k keys at widths 1, 16 and 17, both slow branches included.

    ``standard_normal(w)`` draws the first ``w`` normals of the stream, so
    one 17-wide reference per key serves every width.  The keys must make
    the ziggurat miss its fast path both ways: in layer 0, where numpy
    samples the tail, and in the other layers, where it tests a wedge.
    """
    keys = np.random.default_rng(2024).integers(0, 2**32, 100_000).tolist()
    expected = np.stack([np.random.default_rng(k).standard_normal(17) for k in keys])
    raw = np.stack([np.random.PCG64(k).random_raw(17) for k in keys])
    layer = (raw & np.uint64(0xFF)).astype(np.intp)
    missed = ((raw >> np.uint64(9)) & np.uint64(2**52 - 1)) >= KI_DOUBLE[layer]
    for width in (1, 16, 17):
        rows = standard_normal_rows(keys, width)
        assert np.array_equal(_bits(rows), _bits(expected[:, :width]))
        first_miss = missed[:, :width].argmax(axis=1)
        lanes = np.flatnonzero(missed[:, :width].any(axis=1))
        first_layer = layer[lanes, first_miss[lanes]]
        assert (first_layer == 0).any() and (first_layer != 0).any()


def test_standard_normal_rows_of_no_keys():
    assert standard_normal_rows([], 17).shape == (0, 17)
    assert standard_normal_rows([5, 6], 0).shape == (2, 0)


def test_table_normals_draw_every_group_in_one_pass():
    table = SeedTable()
    keys = list(range(4096))
    wide, narrow = table.normals([(keys, 17), (keys[:2000], 16)])
    assert np.array_equal(_bits(wide), _bits(standard_normal_rows(keys, 17)))
    assert np.array_equal(_bits(narrow), _bits(standard_normal_rows(keys[:2000], 16)))
    assert table.passes == 1 and table.vector_lanes + table.scalar_lanes == 6096
    assert 0 < table.scalar_lanes < 6096 // 2
    table.fill({"light": ([7], ([1],))})
    assert [rows.shape for rows in table.normals([(keys[:5], 18), ([], 16)])] == [(5, 18), (0, 16)]
    assert table.take("light", 7) == (([1],), 0)  # drawing does not touch the filed rows
    assert table.passes == 2 and table.normals([([], 17)])[0].shape == (0, 17)
    assert table.passes == 2  # nothing to draw, no pass
    assert pickle.loads(pickle.dumps(table)).scalar_lanes == 0


names = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["it's", 'say "hi"', "both ' and \"", "é→✓", "back\\slash", "100%", "%d%s%%", ""]
)
parts = st.lists(names | st.integers(-(2**40), 2**40), max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(parts, st.lists(st.integers(0, 2**40), max_size=8), parts)
def test_stable_hashes_equal_stable_hash(head, ids, tail):
    expected = [stable_hash(*head, i, *tail) for i in ids]
    assert stable_hashes(head, ids, tail) == expected


def test_stable_hashes_format_ids_as_python_ints():
    ids = np.arange(3, dtype=np.int64)
    expected = [stable_hash(0, i, "sd-turbo") for i in range(3)]
    assert stable_hashes((0,), ids, ("sd-turbo",)) == expected


def test_pcg64_states_are_the_seeded_generator_state():
    for key, (s_hi, s_lo, i_hi, i_lo) in zip(EDGE_KEYS, pcg64_states(EDGE_KEYS).tolist()):
        state = np.random.PCG64(key).state["state"]
        assert state == {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}


def test_keys_outside_32_bits_are_rejected():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        seed_sequence_states([2**32])


def _row(table, tag, id_):
    """The values of the row ``take`` finds, or ``None``."""
    found = table.take(tag, id_)
    if found is None:
        return None
    columns, i = found
    return tuple(column[i] for column in columns)


def test_take_removes_and_misses_return_none():
    table = SeedTable()
    table.fill({"light": ([10, 11], ([5, 6],))})
    assert table.take("heavy", 10) is None  # another tag: not held
    assert table.take("light", 12) is None  # another id: not held
    assert _row(table, "light", 10) == (5,)
    assert table.take("light", 10) is None  # taken once
    assert len(table) == 1
    table.clear()
    assert len(table) == 0 and table.take("light", 11) is None


def test_untaken_rows_survive_exactly_one_more_fill():
    table = SeedTable()
    table.fill({"light": ([1, 2, 3], ([1, 2, 3],))})
    assert _row(table, "light", 1) == (1,)
    table.fill({"light": ([4, 5], ([4, 5],))})
    assert (len(table), table.survivors) == (4, 2)  # one chunk plus the two untaken
    assert _row(table, "light", 2) == (2,)  # a survivor is still there
    table.fill({"light": ([6], ([6],))})
    assert (len(table), table.survivors) == (3, 2)  # 4 and 5 survive; 3 is gone
    assert table.take("light", 3) is None
    assert _row(table, "light", 5) == (5,)
    table.fill({})
    assert (len(table), table.survivors) == (1, 1)  # 6 survives; 4 is gone
    assert table.take("light", 4) is None and _row(table, "light", 6) == (6,)


def test_taking_a_row_retires_the_query_under_other_tags():
    table = SeedTable()
    table.fill({"light": ([1, 2], (["l1", "l2"],)), "heavy": ([1, 2], (["h1", "h2"],))})
    assert _row(table, "heavy", 1) == ("h1",)
    assert table.take("light", 1) is None
    table.fill({"light": ([3], (["l3"],)), "heavy": ([3], (["h3"],))})
    assert table.survivors == 2  # query 2 under both tags
    assert _row(table, "light", 2) == ("l2",)
    assert table.survivors == 0 and table.take("heavy", 2) is None
    assert len(table) == 2


def test_survivors_are_read_only_copies():
    table = SeedTable()
    (chunk,) = table.normals([([1, 2, 3], 4)])
    chunk.flags.writeable = False
    table.fill({"light": ([1, 2, 3], ([1, 2, 3], chunk))})
    table.fill({})
    (_, survivors), i = table.take("light", 2)
    assert survivors[i].tobytes() == chunk[1].tobytes()
    assert not np.shares_memory(survivors, chunk) and not survivors.flags.writeable


def test_pickled_table_is_empty():
    table = SeedTable()
    table.fill({"light": ([1, 2, 3], ([1, 2, 3],))})
    table.fill({"light": ([4], ([4],))})
    clone = pickle.loads(pickle.dumps(table))
    assert len(clone) == 0 and clone.survivors == 0 and clone.take("light", 4) is None
    assert len(pickle.dumps(table)) < 100
