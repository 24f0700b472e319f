"""Tests for the shared multi-core suite runner."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    FIGURE8_MECHANISMS,
    mix_grid,
    run_drrip_study,
    run_figure7,
    run_figure8,
    run_multicore_suite,
    run_table3,
    run_table7,
)
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import QUICK_SCALE

TINY = dataclasses.replace(
    QUICK_SCALE, name="tiny", refs_per_core_multi=2_500, mixes_per_system=2
)


class TestSuiteStructure:
    def setup_method(self):
        self.suite = run_multicore_suite(
            TINY,
            core_counts=(2,),
            mechanisms=("baseline", "dbi"),
            mixes_per_system=2,
            figure8_mechanisms=("dbi",),
        )

    def test_produces_three_artifacts(self):
        assert sorted(self.suite) == ["fig7", "fig8", "table3"]

    def test_fig7_rows(self):
        fig7 = self.suite["fig7"]
        assert fig7.headers == ["system", "baseline", "dbi"]
        assert fig7.rows[0][0] == "2-core"
        assert all(isinstance(v, float) for v in fig7.rows[0][1:])

    def test_fig8_normalized_to_baseline(self):
        fig8 = self.suite["fig8"]
        assert fig8.headers == ["workload", "dbi/baseline"]
        assert len(fig8.rows) == 2
        # S-curve is sorted ascending by the last mechanism's ratio.
        values = [row[1] for row in fig8.rows]
        assert values == sorted(values)

    def test_table3_improvement_percentages(self):
        table3 = self.suite["table3"]
        assert table3.rows[0][0] == "2-core"
        assert table3.rows[0][1] == 2  # workload count
        assert table3.rows[0][2].endswith("%")

    def test_raw_metrics_shared(self):
        raw = self.suite["fig7"].raw
        assert 2 in raw
        for mix_metrics in raw[2].values():
            assert set(mix_metrics) == {"baseline", "dbi"}
            for metrics in mix_metrics.values():
                assert set(metrics) == {
                    "weighted_speedup", "instruction_throughput",
                    "harmonic_speedup", "maximum_slowdown",
                }


class TestSuiteAgreesWithRunners:
    """The standalone runners are views of the suite's mix grid: on a warm
    runner they simulate nothing new and render the suite's artifacts."""

    MECHANISMS = ("baseline", "dawb", "dbi+awb+clb")

    @pytest.fixture(scope="class")
    def warm(self):
        runner = SweepRunner(workers=0, cache_dir=None)
        suite = run_multicore_suite(
            TINY, core_counts=(2, 4), mechanisms=self.MECHANISMS,
            mixes_per_system=2, runner=runner,
        )
        return runner, suite

    def _no_new_jobs(self, runner, produce):
        executed = runner.jobs_executed
        result = produce()
        assert runner.jobs_executed == executed
        return result

    def test_figure7_matches_suite(self, warm):
        runner, suite = warm
        fig7 = self._no_new_jobs(runner, lambda: run_figure7(
            TINY, core_counts=(2, 4), mechanisms=self.MECHANISMS,
            mixes_per_system=2, runner=runner,
        ))
        assert fig7.to_text() == suite["fig7"].to_text()
        assert fig7.raw == suite["fig7"].raw

    def test_figure8_matches_suite(self, warm):
        runner, suite = warm
        fig8 = self._no_new_jobs(runner, lambda: run_figure8(
            TINY, num_mixes=2, runner=runner,
        ))
        assert fig8.to_text() == suite["fig8"].to_text()

    def test_table3_matches_suite(self, warm):
        runner, suite = warm
        table3 = self._no_new_jobs(runner, lambda: run_table3(
            TINY, core_counts=(2, 4), mixes_per_system=2, runner=runner,
        ))
        assert table3.to_text() == suite["table3"].to_text()

    def test_table7_2mb_row_is_table3_weighted_speedup(self, warm):
        runner, suite = warm
        table7 = self._no_new_jobs(runner, lambda: run_table7(
            TINY, core_counts=(2, 4), mb_per_core_options=(2,),
            mixes_per_system=2, runner=runner,
        ))
        assert table7.rows[0][1:] == [
            row[2] for row in suite["table3"].rows
        ]


class TestDrripStudy:
    def test_drrip_reaches_shared_and_alone_runs(self):
        runner = SweepRunner(workers=0, cache_dir=None)
        result = run_drrip_study(
            TINY, core_count=2, mixes_per_system=2, runner=runner
        )
        # Two mixes x two mechanisms, plus one alone run per core trace.
        assert runner.jobs_executed == 2 * 2 + 2 * 2
        mixes = {2: TINY.mixes(2, count=2)}
        grid = mix_grid(runner, TINY, mixes, FIGURE8_MECHANISMS,
                        llc_replacement="drrip")
        assert runner.jobs_executed == 8
        assert [row[1] for row in result.rows] == [
            sum(point[mech]["weighted_speedup"] for point in grid[2].values())
            / 2
            for mech in FIGURE8_MECHANISMS
        ]
        # The same points on the default LLC share no job with the study.
        mix_grid(runner, TINY, mixes, FIGURE8_MECHANISMS)
        assert runner.jobs_executed == 16
