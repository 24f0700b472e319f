"""Property-based check of ``DeterministicRng.raw`` (hypothesis).

``raw`` draws batches of at least ``MIN_LANES`` lanes with a jump-ahead
lane kernel and the rest with a scalar loop; for any seed and count it
must return exactly the values, and leave exactly the state, that one
``next_u64`` call per value would.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.utils.rng import DeterministicRng  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**64 - 1)
counts = st.integers(min_value=0, max_value=20_000)


def check_raw_matches_next_u64(seed, count):
    batch, single = DeterministicRng(seed), DeterministicRng(seed)
    assert batch.raw(count) == [single.next_u64() for _ in range(count)]
    assert batch._state == single._state


@settings(max_examples=25, deadline=None)
@given(seeds, counts)
def test_raw_matches_next_u64(seed, count):
    check_raw_matches_next_u64(seed, count)


@pytest.mark.fuzz
@settings(max_examples=1000, deadline=None)
@given(seeds, counts)
def test_raw_matches_next_u64_fuzz(seed, count):
    check_raw_matches_next_u64(seed, count)
