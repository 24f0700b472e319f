"""Unit tests for the stat records."""

import pickle

from repro.utils.stats import StatRecord


class ExampleStats(StatRecord):
    __slots__ = (
        "lookups",
        "hits",
        "per_core",
        "hit_rate_hits",
        "hit_rate_total",
        "latency_count",
        "latency_sum",
    )
    RATES = ("hit_rate",)
    DISTRIBUTIONS = ("latency",)
    PER_CORE = ("per_core",)


class TestCounter:
    def test_increment(self):
        stats = ExampleStats("llc")
        stats.lookups += 1
        stats.add("lookups", 4)
        assert stats.lookups == 5
        assert stats.as_dict() == {"llc.lookups": 5}

    def test_reset(self):
        stats = ExampleStats("llc")
        stats.lookups += 3
        stats.reset()
        assert stats.lookups == 0


class TestRateStat:
    def test_rate(self):
        stats = ExampleStats("dram")
        for hit in (True, True, False, True):
            stats.hit_rate_total += 1
            stats.hit_rate_hits += hit
        assert list(stats.rates()) == [("hit_rate", 3, 4)]
        flat = stats.as_dict()
        assert flat["dram.hit_rate"] == 0.75
        assert (flat["dram.hit_rate.hits"], flat["dram.hit_rate.total"]) == (3, 4)

    def test_empty_rate_is_zero(self):
        stats = ExampleStats("dram")
        stats.hit_rate_total += 1
        assert stats.as_dict()["dram.hit_rate"] == 0.0

    def test_reset(self):
        stats = ExampleStats("dram")
        stats.hit_rate_total += 1
        stats.hit_rate_hits += 1
        stats.reset()
        assert list(stats.rates()) == [("hit_rate", 0, 0)]


class TestDistribution:
    def test_streaming_stats(self):
        stats = ExampleStats("core")
        for sample in (10, 20, 30):
            stats.latency_count += 1
            stats.latency_sum += sample
        assert list(stats.distributions()) == [("latency", 3, 60)]
        assert stats.as_dict() == {"core.latency.mean": 20, "core.latency.count": 3}

    def test_empty_mean_is_zero(self):
        stats = ExampleStats("core")
        stats.latency_count += 1
        stats.reset()
        assert stats.as_dict()["core.latency.mean"] == 0.0

    def test_reset(self):
        stats = ExampleStats("core")
        stats.latency_count += 1
        stats.latency_sum += 5
        stats.reset()
        assert (stats.latency_count, stats.latency_sum) == (0, 0)


class TestStatGroup:
    def test_counter_reuse(self):
        stats = ExampleStats("llc")
        stats.lookups += 1
        stats.lookups += 1
        assert stats.lookups == 2

    def test_as_dict_flattening(self):
        stats = ExampleStats("llc")
        stats.add("lookups", 7)
        stats.hit_rate_total += 2
        stats.hit_rate_hits += 1
        stats.latency_count += 1
        stats.latency_sum += 12
        flat = stats.as_dict()
        assert flat["llc.lookups"] == 7
        assert flat["llc.hit_rate"] == 0.5
        assert flat["llc.hit_rate.hits"] == 1
        assert flat["llc.hit_rate.total"] == 2
        assert flat["llc.latency.mean"] == 12
        assert flat["llc.latency.count"] == 1

    def test_group_reset(self):
        stats = ExampleStats("g")
        stats.lookups += 1
        stats.hit_rate_total += 1
        stats.latency_count += 1
        stats.reset()
        flat = stats.as_dict()
        assert flat["g.lookups"] == 0
        assert flat["g.hit_rate.total"] == 0
        assert flat["g.latency.count"] == 0


class TestExportRule:
    """A stat is exported iff it was incremented at least once."""

    def test_never_incremented_stats_are_absent(self):
        stats = ExampleStats("g")
        assert stats.as_dict() == {}
        stats.hits += 1
        assert stats.as_dict() == {"g.hits": 1}
        assert list(stats.counters()) == [("hits", 1)]
        assert list(stats.rates()) == [] and list(stats.distributions()) == []

    def test_stat_incremented_only_before_reset_exports_zero(self):
        stats = ExampleStats("g")
        stats.lookups += 4
        stats.hit_rate_total += 1
        stats.latency_count += 1
        stats.per_core[1] = 2
        stats.reset()
        stats.hits += 1
        assert stats.as_dict() == {
            "g.lookups": 0,
            "g.hits": 1,
            "g.per_core1": 0,
            "g.hit_rate": 0.0,
            "g.hit_rate.hits": 0,
            "g.hit_rate.total": 0,
            "g.latency.mean": 0.0,
            "g.latency.count": 0,
        }
        # A second reset keeps the remembered set.
        stats.reset()
        assert set(stats.as_dict()) == {
            "g.lookups",
            "g.hits",
            "g.per_core1",
            "g.hit_rate",
            "g.hit_rate.hits",
            "g.hit_rate.total",
            "g.latency.mean",
            "g.latency.count",
        }

    def test_adding_zero_exports_the_field(self):
        stats = ExampleStats("g")
        stats.add("lookups", 0)
        assert stats.as_dict() == {"g.lookups": 0}

    def test_per_core_counts_export_in_core_order(self):
        stats = ExampleStats("mech")
        stats.per_core[3] = 1
        stats.per_core[0] = 2
        assert stats.as_dict() == {"mech.per_core0": 2, "mech.per_core3": 1}

    def test_pickle_round_trip_keeps_values_and_remembered_set(self):
        stats = ExampleStats("g")
        stats.lookups += 2
        stats.reset()
        stats.hits += 3
        stats.per_core[1] = 5
        copy = pickle.loads(pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy.as_dict() == stats.as_dict() == {
            "g.lookups": 0,
            "g.hits": 3,
            "g.per_core1": 5,
        }
        copy.reset()
        assert set(copy.as_dict()) == {"g.lookups", "g.hits", "g.per_core1"}


class TestSchema:
    def test_fields_are_declared_once_per_class(self):
        assert ExampleStats.COUNTERS == ("lookups", "hits")
        assert "per_core" not in ExampleStats.FIELDS
        assert not hasattr(ExampleStats("g"), "__dict__")
