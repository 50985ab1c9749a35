import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvdetect.rng import Stream, counter_u64, mix64
from oracles import box_muller_normals, dense_fisher_yates


def test_mix64_is_deterministic_and_mixing():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2**64 for v in outs)


def test_counter_u64_scalar_matches_vector():
    seed = 0xDEADBEEF
    scalar = [counter_u64(seed, i) for i in range(100)]
    vector = Stream(seed).u64_array(100)
    assert scalar == [int(v) for v in vector]


def test_stream_is_counter_based_not_stateful():
    a = Stream(7)
    b = Stream(7)
    a.next_u64()
    assert a.next_u64() == Stream(7).u64_array(2)[1]
    assert b.u64_array(2).tolist() == [counter_u64(7, 0), counter_u64(7, 1)]


def test_spawn_gives_independent_children():
    parent = Stream(5)
    c1 = parent.spawn(0)
    c2 = parent.spawn(1)
    assert c1.seed != c2.seed
    assert Stream(5).spawn(0).seed == c1.seed
    # child values differ from parent's own sequence
    assert c1.next_u64() != Stream(5).next_u64()


def test_integers_range_and_determinism():
    vals = Stream(3).integers(10, 10_000)
    assert vals.min() >= 0 and vals.max() < 10
    assert np.array_equal(vals, Stream(3).integers(10, 10_000))
    # roughly uniform
    counts = np.bincount(vals, minlength=10)
    assert counts.min() > 800


def test_uniforms_and_normals_shape_and_moments():
    u = Stream(11).uniforms(50_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    z = Stream(12).normals(50_001)
    assert z.shape == (50_001,)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@st.composite
def _slices(draw):
    count = draw(st.integers(0, 301))
    start = draw(st.integers(0, count))
    return count, start, draw(st.integers(start, count))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), at=st.integers(0, 40), cut=_slices())
@example(seed=0, at=0, cut=(0, 0, 0))
@example(seed=1, at=3, cut=(7, 3, 3))
@example(seed=2, at=1, cut=(7, 1, 6))
@example(seed=3, at=0, cut=(8, 5, 8))
def test_normals_slice_is_a_slice_of_the_whole_draw(seed, at, cut):
    """normals_slice(at, count, start, stop) is normals(count)[start:stop] of
    a draw made at counter at, bit for bit, and leaves the stream where it
    was; normals still moves the counter by 2 * n_pairs."""
    count, start, stop = cut
    oracle = Stream(seed)
    oracle.u64_array(at)
    whole = box_muller_normals(oracle, count)
    stream = Stream(seed)
    piece = stream.normals_slice(at, count, start, stop)
    assert piece.shape == (stop - start,)
    assert piece.tobytes() == whole[start:stop].tobytes()
    assert stream.next_u64() == counter_u64(seed, 0)
    stream = Stream(seed)
    stream.u64_array(at)
    assert stream.normals(count).tobytes() == whole.tobytes()
    # the draw that follows is unchanged
    assert stream.normals(5).tobytes() == box_muller_normals(oracle, 5).tobytes()


def test_sample_without_replacement_distinct_and_deterministic():
    s = Stream(9).sample_without_replacement(100, 40)
    assert len(set(s.tolist())) == 40
    assert set(s.tolist()) <= set(range(100))
    assert np.array_equal(s, Stream(9).sample_without_replacement(100, 40))
    full = Stream(9).sample_without_replacement(25, 25)
    assert sorted(full.tolist()) == list(range(25))


@pytest.mark.parametrize(
    "n, k",
    [(1, 0), (1, 1), (2, 2), (7, 0), (7, 3), (7, 7), (102, 10), (1000, 999),
     (458_752, 2_000)],
)
def test_sample_without_replacement_matches_dense_oracle(n, k):
    for seed in (0, 9, 2**64 - 1):
        sparse = Stream(seed).sample_without_replacement(n, k)
        dense = dense_fisher_yates(Stream(seed), n, k)
        assert sparse.dtype == np.int64 and sparse.shape == (k,)
        assert np.array_equal(sparse, dense)


def test_sample_without_replacement_costs_o_of_k():
    # a dense pool of 10**12 int64 would need 8 TB
    s = Stream(5).sample_without_replacement(10**12, 3)
    assert s.shape == (3,) and len(set(s.tolist())) == 3
    assert all(0 <= v < 10**12 for v in s.tolist())


def test_sample_without_replacement_bounds():
    with pytest.raises(ValueError):
        Stream(0).sample_without_replacement(5, 6)
    with pytest.raises(ValueError):
        Stream(0).next_below(0)
