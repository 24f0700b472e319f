"""Unit tests for the deterministic RNG."""

import pytest

from repro.utils.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(seed=123)
        b = DeterministicRng(seed=123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(seed=1)
        b = DeterministicRng(seed=2)
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_derive_is_deterministic(self):
        parent = DeterministicRng(seed=7)
        x = parent.derive("workload:mcf").next_u64()
        y = DeterministicRng(seed=7).derive("workload:mcf").next_u64()
        assert x == y

    def test_derive_labels_independent(self):
        parent = DeterministicRng(seed=7)
        a = parent.derive("a")
        b = parent.derive("b")
        assert a.next_u64() != b.next_u64()

    def test_zero_seed_still_works(self):
        rng = DeterministicRng(seed=0)
        assert rng.next_u64() != 0


class TestDistributions:
    def test_random_in_unit_interval(self):
        rng = DeterministicRng(seed=42)
        for _ in range(1000):
            value = rng.random()
            assert 0.0 <= value < 1.0

    def test_randint_bounds(self):
        rng = DeterministicRng(seed=42)
        values = [rng.randint(3, 9) for _ in range(1000)]
        assert min(values) == 3
        assert max(values) == 9

    def test_randint_single_value(self):
        rng = DeterministicRng(seed=42)
        assert rng.randint(5, 5) == 5

    def test_randint_empty_range_rejected(self):
        rng = DeterministicRng(seed=42)
        with pytest.raises(ValueError):
            rng.randint(5, 4)

    def test_chance_extremes(self):
        rng = DeterministicRng(seed=42)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))

    def test_chance_validates_probability(self):
        rng = DeterministicRng(seed=42)
        with pytest.raises(ValueError):
            rng.chance(1.5)

    def test_choice(self):
        rng = DeterministicRng(seed=42)
        items = ["a", "b", "c"]
        picks = {rng.choice(items) for _ in range(200)}
        assert picks == {"a", "b", "c"}

    def test_choice_empty_rejected(self):
        rng = DeterministicRng(seed=42)
        with pytest.raises(ValueError):
            rng.choice([])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(seed=42)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # vanishingly unlikely to be identity

    def test_geometric_mean_approximation(self):
        rng = DeterministicRng(seed=42)
        samples = [rng.geometric(10.0) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert 9.0 < mean < 11.0
        assert min(samples) >= 0

    def test_geometric_zero_mean(self):
        rng = DeterministicRng(seed=42)
        assert all(rng.geometric(0.0) == 0 for _ in range(10))

    def test_geometric_negative_rejected(self):
        rng = DeterministicRng(seed=42)
        with pytest.raises(ValueError):
            rng.geometric(-1.0)

    @pytest.mark.parametrize("size", [0, 1, 2, 50, 2048, 5000])
    def test_shuffle_matches_one_randint_per_position(self, size):
        # The shuffle draws its swaps in one batch; it must permute and
        # consume the stream exactly as one randint(0, i) call per position.
        batch, single = DeterministicRng(seed=9), DeterministicRng(seed=9)
        items, expected = list(range(size)), list(range(size))
        batch.shuffle(items)
        for i in range(size - 1, 0, -1):
            j = single.randint(0, i)
            expected[i], expected[j] = expected[j], expected[i]
        assert items == expected
        assert batch.next_u64() == single.next_u64()
