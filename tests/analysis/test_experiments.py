"""Tests for the experiment runners (tiny scale, structure-focused)."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    ExperimentResult,
    mix_grid,
    run_case_study,
    run_dbi_replacement_study,
    run_figure6,
    run_figure7,
    run_table6,
)
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import QUICK_SCALE, ScaleProfile
from repro.sim.metrics import weighted_speedup
from repro.workloads.mix import make_mix
from repro.workloads.spec import SPEC_PROFILES

#: An even-smaller profile so these tests stay fast.
TINY = dataclasses.replace(
    QUICK_SCALE,
    name="tiny",
    refs_single_core=4_000,
    refs_per_core_multi=2_500,
    mixes_per_system=2,
)


class TestExperimentResult:
    def test_to_text_renders(self):
        result = ExperimentResult(
            experiment_id="x", title="T", headers=["a"], rows=[[1]],
            notes="note",
        )
        text = result.to_text()
        assert "T" in text and "note" in text


class TestFigure6:
    def test_produces_five_subfigures(self):
        results = run_figure6(TINY, benchmarks=("bzip2",),
                              mechanisms=("tadip", "dbi"))
        assert sorted(results) == ["fig6a", "fig6b", "fig6c", "fig6d", "fig6e"]

    def test_rows_cover_benchmarks_plus_gmean(self):
        results = run_figure6(TINY, benchmarks=("bzip2", "astar"),
                              mechanisms=("tadip",))
        fig6a = results["fig6a"]
        names = [row[0] for row in fig6a.rows]
        assert names == ["bzip2", "astar", "gmean"]
        # Other subfigures omit the gmean row.
        assert [row[0] for row in results["fig6b"].rows] == ["bzip2", "astar"]

    def test_values_are_numeric(self):
        results = run_figure6(TINY, benchmarks=("bzip2",), mechanisms=("tadip",))
        for result in results.values():
            for row in result.rows:
                assert all(isinstance(v, (int, float)) for v in row[1:])


class TestAloneCache:
    def test_caches_by_trace_and_shape(self):
        """Alone runs go through the runner's memo, keyed by trace content
        and LLC shape: a repeat request for the same traces and shape runs
        nothing new, while another LLC size is a new alone run per core."""
        runner = SweepRunner(workers=0, cache_dir=None)
        mixes = {2: TINY.mixes(2, count=1)}
        first = mix_grid(runner, TINY, mixes, ("baseline",))
        # One shared run plus one alone run per core.
        assert runner.jobs_executed == 3
        second = mix_grid(runner, TINY, mixes, ("baseline", "dbi"))
        # Only the dbi shared run is new; the alone runs are memo hits.
        assert runner.jobs_executed == 4
        (name,) = first[2]
        assert second[2][name]["baseline"] == first[2][name]["baseline"]
        mix_grid(runner, TINY, mixes, ("baseline",), mb_per_core=4)
        # A larger LLC: a new shared run and a new alone run per core.
        assert runner.jobs_executed == 7
        assert runner.memo_hits > 0
        assert runner.jobs_executed == runner.jobs_submitted


class _RepeatedBenchmarkScale(ScaleProfile):
    """TINY, except every system runs one mix of mcf on every core."""

    def mixes(self, num_cores, count=None, seed=0xDB1, refs_per_core=None):
        return [make_mix(
            "mcf_x{}".format(num_cores),
            [SPEC_PROFILES["mcf"]] * num_cores,
            refs_per_core=self.refs_per_core_multi,
            footprint_divisor=self.divisor,
        )]


class TestAloneNormalizer:
    def test_each_core_normalized_by_its_own_alone_run(self):
        """A mix repeating a benchmark still normalizes every core by that
        core's own trace: same name, different seed and address offset."""
        scale = _RepeatedBenchmarkScale(**{
            f.name: getattr(TINY, f.name) for f in dataclasses.fields(TINY)
        })
        runner = SweepRunner(workers=0, cache_dir=None)
        result = run_figure7(scale, core_counts=(2,), mechanisms=("baseline",),
                             runner=runner)
        # One shared run plus one alone run per core.
        assert runner.jobs_executed == 3
        (mix,) = scale.mixes(2)
        shared = runner.run(scale.system_config("baseline", num_cores=2),
                            mix.traces)
        alone_config = scale.system_config(
            "baseline", mb_per_core=4, llc_replacement=None
        )
        alone = [runner.run(alone_config, [trace]).ipc[0]
                 for trace in mix.traces]
        assert runner.jobs_executed == 3
        assert alone[0] != alone[1]
        assert result.rows[0][1] == weighted_speedup(shared.ipc, alone)


class TestFigure7:
    def test_structure(self):
        result = run_figure7(TINY, core_counts=(2,), mechanisms=("baseline", "dbi"),
                             mixes_per_system=2)
        assert result.headers == ["system", "baseline", "dbi"]
        assert result.rows[0][0] == "2-core"
        assert all(isinstance(v, float) for v in result.rows[0][1:])
        # raw is the mix grid: {cores: {mix: {mechanism: metrics}}}.
        assert list(result.raw) == [2]
        for point in result.raw[2].values():
            assert set(point) == {"baseline", "dbi"}


class TestTable6:
    def test_granularity_scaling_labels(self):
        result = run_table6(TINY, benchmarks=("lbm",))
        # Scaled equivalents of 16/32/64/128 with divisor 16: {2, 4, 8}
        # (deduplicated after the floor of 2).
        assert result.headers[0] == "DBI size"
        assert len(result.rows) == 2  # two alphas


class TestStudies:
    def test_replacement_study_covers_policies(self):
        result = run_dbi_replacement_study(TINY, benchmarks=("lbm",),
                                           policies=("lrw", "max-dirty"))
        assert [row[0] for row in result.rows] == ["lrw", "max-dirty"]
        assert all(row[1] > 0 for row in result.rows)

    def test_case_study_runs(self):
        result = run_case_study(TINY, mechanisms=("baseline", "dbi"))
        assert len(result.rows) == 2
        assert result.raw["baseline"] > 0
