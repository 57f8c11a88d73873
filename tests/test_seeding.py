import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcex.seeding import radix_argsort, sample_without_replacement

from helpers import reference_floyd


def assert_same_as_reference(total, count, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_without_replacement(total, count, rng)
    want = reference_floyd(total, count, ref_rng)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    # Callers such as generate_benchmark keep drawing from the generator.
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(set(got.tolist())) == count
    assert all(0 <= v < total for v in got.tolist())


@st.composite
def totals_and_counts(draw):
    total = draw(st.integers(1, 500))
    return total, draw(st.integers(0, total))


class TestSampleWithoutReplacement:
    @settings(max_examples=300, deadline=None)
    @given(totals_and_counts(), st.integers(0, 2**32 - 1))
    @example((1, 1), 0)
    @example((500, 500), 1)
    @example((500, 499), 2)
    @example((7, 0), 3)
    def test_matches_floyd_loop(self, case, seed):
        total, count = case
        assert_same_as_reference(total, count, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_pick_matches_floyd_loop(self, seed):
        # The size of a null graph's draw at N = 10000: 52,728 of 10^8 slots,
        # where a few draws repeat.
        assert_same_as_reference(10**8, 52728, seed)

    def test_full_pick_is_a_permutation(self):
        got = sample_without_replacement(300, 300, np.random.default_rng(5))
        assert sorted(got.tolist()) == list(range(300))

    @pytest.mark.parametrize("total, count", [(5, 6), (5, -1), (0, 1)])
    def test_impossible_count_rejected(self, total, count):
        with pytest.raises(ValueError, match="distinct"):
            sample_without_replacement(total, count, np.random.default_rng(0))


# Bounds around each 16-bit pass boundary, up to the bound of the (src, dst)
# keys of a graph of 2**20 nodes.
RADIX_BOUNDS = [1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32 + 1, 2**40]


@st.composite
def ids_and_bounds(draw):
    bound = draw(st.sampled_from(RADIX_BOUNDS) | st.integers(1, 2**40))
    edge = st.sampled_from([0, bound - 1]) | st.integers(0, bound - 1)
    pool = np.array(draw(st.lists(edge, min_size=1, max_size=20)))  # ids repeat
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(pool, size=draw(st.integers(0, 2000))), bound


class TestRadixArgsort:
    @settings(max_examples=300, deadline=None)
    @given(ids_and_bounds())
    @example((np.array([], dtype=np.int64), 1))
    @example((np.array([], dtype=np.int64), 2**40))
    @example((np.array([2**40 - 1, 0, 2**40 - 1, 2**32, 0]), 2**40))
    def test_matches_stable_argsort(self, case):
        ids, bound = case
        assert np.array_equal(radix_argsort(ids, bound),
                              np.argsort(ids, kind="stable"))
