"""Die-stacked DRAM-cache dirty-tracking trade-off (TicToc/Banshee).

Regenerates the ``repro dramcache`` study: each benchmark runs behind the
same LLC mechanism with the stacked level's two dirty backends — per-line
tag dirty bits vs a row-granularity DBI feeding aggressive whole-row
writeback. Expected shape: the DBI side batches the off-chip write stream
by DRAM row (strictly higher writeback row-hit rate, strictly lower
write-stream cost in DRAM cycles) without giving up hit latency (IPC stays
within noise of the tag side).
"""

from benchmarks.conftest import show
from repro.analysis.experiments import (
    DRAMCACHE_TRADEOFF_BENCHMARKS,
    run_dramcache,
)


def test_dramcache_tradeoff(benchmark, scale, runner):
    result = benchmark.pedantic(
        lambda: run_dramcache(scale, runner=runner), rounds=1, iterations=1
    )
    show(result.to_text())
    for bench in DRAMCACHE_TRADEOFF_BENCHMARKS:
        tag, dbi = result.raw[bench]["tag"], result.raw[bench]["dbi"]
        # The bandwidth half of the trade-off: strictly better on both axes.
        assert dbi["write_row_hit_rate"] > tag["write_row_hit_rate"], bench
        assert dbi["write_cost_cycles"] < tag["write_cost_cycles"], bench
        # The latency half: aggressive writeback must not cost hit rate.
        assert dbi["ipc"] >= 0.9 * tag["ipc"], bench


def test_checked_level_run_is_byte_identical(benchmark, scale):
    """``--check full`` with the level attached is purely observational."""
    from repro.sim.system import run_system

    config = scale.system_config(
        "dbi+awb", dram_cache=scale.dram_cache_study_config("dbi")
    )
    trace = scale.benchmark_trace("lbm", refs=8_000)

    def both():
        unchecked = run_system(config, [trace])
        checked = run_system(config, [trace], check="full")
        return unchecked, checked

    unchecked, checked = benchmark.pedantic(both, rounds=1, iterations=1)
    assert checked.to_dict() == unchecked.to_dict()
