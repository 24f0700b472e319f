"""The paper's Section 6 conclusions, asserted on this reproduction.

Each test states one claim from PAPER.md and EXPERIMENTS.md and checks it
at quick scale on a fixed selection taken in the scale's own order: the
first three write-heavy benchmarks of Figure 6 and the first three mixes
of each core count. Every threshold is the value measured on that
selection (quoted beside it) less a stated margin, never the paper's
number. A claim this reproduction does not reproduce on the selection is
recorded as a deviation in EXPERIMENTS.md and is not asserted here.

A change that moves results and breaks a claim is wrong, or the claim
becomes a recorded deviation with its numbers; a threshold is never
loosened to let it through, and other benchmarks or mixes are never chosen
to make it pass.

Every simulation goes through one module-wide ``SweepRunner``, so a run
that two claims need (Figure 7's grid and Table 3's, say) is simulated
once. Unmarked tests are tier-1. The ``slow`` ones (the full Figure 7
lineup and 8 cores, Figure 8, Tables 6 and 7, the ablations, the case
study and the DRAM-cache trade-off) run with ``pytest -m slow``.
"""

import dataclasses
import os

import pytest

from repro.analysis.experiments import (
    FIGURE7_MECHANISMS,
    SECTION5_METRICS,
    run_case_study,
    run_dbi_replacement_study,
    run_dramcache,
    run_drrip_study,
    run_figure7,
    run_figure8,
    run_table3,
    run_table6,
    run_table7,
)
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import QUICK_SCALE
from repro.sim.system import run_system
from repro.workloads.spec import SPEC_PROFILES, profile_names

SCALE = QUICK_SCALE
#: The first three write-heavy benchmarks in Figure 6's order.
WRITE_HEAVY = tuple(
    name for name in profile_names()
    if SPEC_PROFILES[name].write_intensity == "high"
)[:3]
#: Mixes per core count: the first three of the scale's mix list.
MIXES = 3
#: Figure 6's claims compare these mechanisms with TA-DIP.
FIGURE6_LINEUP = ("tadip", "dawb", "vwq", "dbi+awb", "dbi+awb+clb")
#: Tier-1's Figure 7 lineup: the Baseline and the two mechanisms Figure 8
#: compares; Table 3 reads the same grid. The full seven-mechanism 2/4-core
#: grid takes 36 s on two workers, over tier-1's 30 s budget, so the other
#: four mechanisms run under ``slow``.
TIER1_FIGURE7_LINEUP = ("baseline", "dawb", "dbi+awb+clb")

# Figure 6b: write row-hit rate over TA-DIP, at least (measured on
# lbm/GemsFDTD/cactusADM; margin 11-13% below the smallest).
WRITE_RHR_LIFT = {
    "dawb": 1.8,  # measured 2.07-2.38x
    "vwq": 1.4,  # measured 1.58-1.75x
    "dbi+awb": 1.6,  # measured 1.84-1.98x
}
# Figure 6c: tag lookups over TA-DIP (margin 8-15%).
DAWB_LOOKUPS_MIN = 2.2  # measured 2.56-2.99x
VWQ_LOOKUPS_MIN = 2.4  # measured 2.83-3.19x
DBI_AWB_LOOKUPS_MAX = 1.35  # measured 1.18-1.25x
CLB_OVER_AWB_LOOKUPS_MAX = 0.75  # dbi+awb+clb / dbi+awb, measured 0.62-0.66
LIBQUANTUM_CLB_LOOKUPS_MAX = 0.85  # dbi+awb+clb / tadip, measured 0.74
# Figure 7 / Table 3, by core count: about half the smallest measured gain.
# Figure 7's smallest mean weighted-speedup lift over the Baseline is
# 4.3% / 1.8% / 13.9% at 2 / 4 / 8 cores; Table 3's smallest metric gain
# of DBI+AWB+CLB is 8.4% / 6.5% / 12.6%.
WS_LIFT_MIN = {2: 0.02, 4: 0.01, 8: 0.07}
TABLE3_GAIN_MIN = {2: 0.04, 4: 0.03, 8: 0.06}


@pytest.fixture(scope="module")
def runner():
    with SweepRunner(
        workers=min(2, os.cpu_count() or 1), cache_dir=None, use_cache=False
    ) as sweep:
        yield sweep


def simulate(runner, config, trace):
    return runner.submit(config, [trace]).result()


@pytest.fixture(scope="module")
def figure6(runner):
    """``{(benchmark, mechanism): SimulationResult}``: the write-heavy
    selection under Figure 6's lineup, plus libquantum's CLB case."""
    cells = [(b, m) for b in WRITE_HEAVY for m in FIGURE6_LINEUP]
    cells += [("libquantum", "tadip"), ("libquantum", "dbi+awb+clb")]
    benchmarks = (*WRITE_HEAVY, "libquantum")
    traces = {b: SCALE.benchmark_trace(b) for b in benchmarks}
    futures = {
        (b, m): runner.submit(SCALE.system_config(m), [traces[b]])
        for b, m in cells
    }
    return {cell: future.result() for cell, future in futures.items()}


def figure7(runner, core_counts, mechanisms):
    """``{cores: {mechanism: mean weighted speedup}}`` over the selection."""
    result = run_figure7(
        SCALE, core_counts=core_counts, mechanisms=mechanisms,
        mixes_per_system=MIXES, runner=runner,
    )
    return {
        cores: dict(zip(mechanisms, row[1:]))
        for cores, row in zip(core_counts, result.rows)
    }


def table3(runner, core_counts):
    """``{cores: {metric: mean gain}}`` of DBI+AWB+CLB over the Baseline,
    maximum slowdown as a reduction."""
    raw = run_table3(
        SCALE, core_counts=core_counts, mixes_per_system=MIXES, runner=runner
    ).raw
    gains = {}
    for cores, improvements in raw.items():
        mean = {k: sum(v) / len(v) for k, v in improvements.items()}
        mean["maximum_slowdown"] = -mean["maximum_slowdown"]
        gains[cores] = mean
    return gains


# ------------------------------------------------------------ Figure 6


@pytest.mark.parametrize("bench", WRITE_HEAVY)
@pytest.mark.parametrize("mechanism", sorted(WRITE_RHR_LIFT))
def test_proactive_writeback_lifts_write_row_hits(figure6, bench, mechanism):
    """Figure 6b: DAWB, VWQ and DBI+AWB lift write row-hit rate well above
    TA-DIP's on write-heavy benchmarks."""
    base = figure6[bench, "tadip"].write_row_hit_rate
    ours = figure6[bench, mechanism].write_row_hit_rate
    assert ours >= WRITE_RHR_LIFT[mechanism] * base, (bench, ours, base)


def figure6_lookups(figure6, bench):
    """``{mechanism: tag lookups per kilo-instruction}`` on ``bench``."""
    return {m: figure6[bench, m].tag_lookups_pki for m in FIGURE6_LINEUP}


@pytest.mark.parametrize("bench", WRITE_HEAVY)
def test_row_probing_amplifies_tag_lookups(figure6, bench):
    """Figure 6c: DAWB and VWQ, which probe the tag store for every block of
    a row, do 2-3x TA-DIP's tag lookups."""
    lookups = figure6_lookups(figure6, bench)
    base = lookups["tadip"]
    assert lookups["dawb"] >= DAWB_LOOKUPS_MIN * base, lookups
    assert lookups["vwq"] >= VWQ_LOOKUPS_MIN * base, lookups


@pytest.mark.parametrize("bench", WRITE_HEAVY)
def test_dbi_keeps_tag_lookups_near_tadip(figure6, bench):
    """Figure 6c: DBI+AWB looks up only the dirty blocks, staying within
    about 1.2x TA-DIP's tag lookups, and CLB lowers its count further."""
    lookups = figure6_lookups(figure6, bench)
    assert lookups["dbi+awb"] <= DBI_AWB_LOOKUPS_MAX * lookups["tadip"], lookups
    assert (
        lookups["dbi+awb+clb"] <= CLB_OVER_AWB_LOOKUPS_MAX * lookups["dbi+awb"]
    ), lookups


def test_clb_cuts_lookups_below_tadip_on_streaming_misses(figure6):
    """Figure 6c: on libquantum's streaming misses CLB bypasses the tag
    store, taking DBI+AWB+CLB below TA-DIP's lookups."""
    base = figure6["libquantum", "tadip"]
    clb = figure6["libquantum", "dbi+awb+clb"]
    ceiling = LIBQUANTUM_CLB_LOOKUPS_MAX * base.tag_lookups_pki
    assert clb.tag_lookups_pki <= ceiling, (clb.tag_lookups_pki, ceiling)
    assert clb.stats.get("mech.bypassed_lookups", 0) > 0


# ---------------------------------------------------- Figure 7, Table 3


def test_dawb_and_dbi_beat_baseline_at_two_and_four_cores(runner):
    """Figure 7: DAWB's and DBI+AWB+CLB's mean weighted speedups are above
    the Baseline's at 2 and 4 cores (measured: Baseline 1.216 against 1.268
    and 1.290 at 2 cores, 1.712 against 1.744 and 1.755 at 4 cores)."""
    lineup = TIER1_FIGURE7_LINEUP
    for cores, speedups in figure7(runner, (2, 4), lineup).items():
        floor = (1.0 + WS_LIFT_MIN[cores]) * speedups["baseline"]
        for mechanism in lineup[1:]:
            assert speedups[mechanism] >= floor, (cores, mechanism, speedups)


def test_dbi_awb_clb_improves_all_section5_metrics(runner):
    """Table 3: DBI+AWB+CLB beats the Baseline on weighted speedup,
    instruction throughput, harmonic speedup and maximum slowdown."""
    for cores, gains in table3(runner, (2, 4)).items():
        for metric in SECTION5_METRICS:
            assert gains[metric] >= TABLE3_GAIN_MIN[cores], (cores, gains)


@pytest.mark.slow
def test_every_figure7_mechanism_beats_baseline_at_every_core_count(runner):
    """Figure 7's full lineup at 2, 4 and 8 cores (measured at 8 cores:
    Baseline 2.032 against 2.314-2.374)."""
    cores = (2, 4, 8)
    for n, speedups in figure7(runner, cores, FIGURE7_MECHANISMS).items():
        floor = (1.0 + WS_LIFT_MIN[n]) * speedups["baseline"]
        for mechanism in FIGURE7_MECHANISMS[1:]:
            assert speedups[mechanism] >= floor, (n, mechanism, speedups)
    for metric, gain in table3(runner, (8,))[8].items():
        assert gain >= TABLE3_GAIN_MIN[8], (metric, gain)


# ------------------------------------------------- slow: the rest of §6


@pytest.mark.slow
def test_few_four_core_mixes_degrade(runner):
    """Figure 8: only a minority of 4-core mixes fall below the Baseline
    under DBI+AWB+CLB (measured 2 of the first 6; paper 7 of 259)."""
    normalized = run_figure8(SCALE, num_mixes=6, runner=runner).raw
    degrading = [v for v in normalized["dbi+awb+clb"] if v < 1.0]
    assert len(degrading) <= 2, normalized


@pytest.mark.slow
def test_awb_gain_grows_with_granularity(runner):
    """Table 6: AWB's IPC gain grows with DBI granularity at each size
    (measured +9.5% -> +13.4% at alpha=1/4, +7.9% -> +12.3% at 1/2), and the
    largest configuration beats the smallest."""
    raw = run_table6(SCALE, benchmarks=WRITE_HEAVY[:2], runner=runner).raw
    gain = {key: sum(v) / len(v) for key, v in raw.items()}
    alphas = sorted({a for a, _ in gain})
    grans = sorted({g for _, g in gain})
    for alpha in alphas:
        assert gain[alpha, grans[-1]] >= gain[alpha, grans[0]] + 0.02, gain
    assert gain[alphas[-1], grans[-1]] >= gain[alphas[0], grans[0]], gain


@pytest.mark.slow
def test_dbi_gains_at_the_paper_llc_capacity(runner):
    """Table 7: at 2 MB/core DBI+AWB+CLB gains weighted speedup (measured
    +8.4% at 2 cores). The 4 MB/core inversion is a recorded deviation."""
    gains = run_table7(
        SCALE, core_counts=(2,), mb_per_core_options=(2, 4),
        mixes_per_system=MIXES, runner=runner,
    ).raw[2, 2]
    assert sum(gains) / len(gains) >= 0.04, gains


@pytest.mark.slow
def test_lrw_is_comparable_to_the_best_dbi_policy(runner):
    """Section 6.4: LRW is within a few percent of the best DBI replacement
    policy (measured 0.291 against max-dirty's 0.295 gmean IPC)."""
    result = run_dbi_replacement_study(
        SCALE, benchmarks=profile_names()[:2], runner=runner
    )
    ipc = dict(result.rows)
    assert ipc["lrw"] >= 0.97 * max(ipc.values()), ipc


@pytest.mark.slow
def test_dbi_beats_dawb_under_drrip(runner):
    """Section 6.5: with a DRRIP LLC, DBI+AWB+CLB still beats DAWB
    (measured +2.2% at 2 cores; paper +7% at 8)."""
    result = run_drrip_study(
        SCALE, core_count=2, mixes_per_system=MIXES, runner=runner
    )
    ws = dict(result.rows)
    assert ws["dbi+awb+clb (DRRIP LLC)"] >= 1.01 * ws["dawb (DRRIP LLC)"], ws


@pytest.mark.slow
def test_case_study_dbi_beats_baseline(runner):
    """Section 6.2 case study, GemsFDTD + libquantum: DBI+AWB+CLB improves
    weighted speedup (measured +10.6%). DAWB edging plain DBI is a recorded
    deviation."""
    ws = run_case_study(SCALE, runner=runner).raw
    assert ws["dbi+awb+clb"] >= 1.05 * ws["baseline"], ws


@pytest.mark.slow
def test_slower_tag_port_does_not_favour_dawb(runner):
    """Ablation: DAWB's extra tag lookups cost it more on a slower LLC tag
    port, so DBI+AWB's IPC relative to DAWB's on lbm must not fall by more
    than a point from port occupancy 1 to 4 (measured -1.66% -> -1.61%;
    DBI+AWB trailing DAWB single-core is a recorded deviation)."""
    trace = SCALE.benchmark_trace("lbm")
    lead = []
    for occupancy in (1, 4):
        ipc = {}
        for mech in ("dawb", "dbi+awb"):
            config = SCALE.system_config(mech)
            llc = dataclasses.replace(
                config.resolve_llc(), port_occupancy=occupancy
            )
            config = dataclasses.replace(config, llc=llc)
            ipc[mech] = simulate(runner, config, trace).ipc[0]
        lead.append(ipc["dbi+awb"] / ipc["dawb"] - 1.0)
    assert lead[1] >= lead[0] - 0.01, lead


@pytest.mark.slow
def test_partial_drains_mean_more_drain_phases(runner):
    """Ablation: stopping a write drain early (low watermark 32) instead of
    draining to empty, the paper's policy, gives more, shorter drains
    (measured 15 -> 27 drain phases on GemsFDTD)."""
    trace = SCALE.benchmark_trace("GemsFDTD")
    phases = []
    for low_watermark in (0, 32):
        config = SCALE.system_config("dbi+awb")
        dram = dataclasses.replace(
            config.dram, drain_low_watermark=low_watermark
        )
        config = dataclasses.replace(config, dram=dram)
        result = simulate(runner, config, trace)
        phases.append(result.stats.get("dram.write_drain_phases", 0))
    assert phases[1] > phases[0], phases


@pytest.mark.slow
def test_dram_cache_dbi_batches_the_write_stream(runner):
    """DRAM-cache trade-off: a row-granularity DBI with aggressive writeback
    raises the off-chip writeback row-hit rate and lowers the write-stream
    cost against per-line tag dirty bits, at no IPC cost (measured: dbi/tag
    IPC 1.00-1.08)."""
    result = run_dramcache(SCALE, runner=runner)
    for bench, cells in result.raw.items():
        tag, dbi = cells["tag"], cells["dbi"]
        assert dbi["write_row_hit_rate"] > tag["write_row_hit_rate"], bench
        assert dbi["write_cost_cycles"] < tag["write_cost_cycles"], bench
        assert dbi["ipc"] >= 0.98 * tag["ipc"], bench


@pytest.mark.slow
def test_checked_dram_cache_run_is_byte_identical():
    """``--check full`` with the stacked level attached only observes."""
    config = SCALE.system_config(
        "dbi+awb", dram_cache=SCALE.dram_cache_study_config("dbi")
    )
    trace = SCALE.benchmark_trace("lbm", refs=8_000)
    checked = run_system(config, [trace], check="full")
    assert checked.to_dict() == run_system(config, [trace]).to_dict()
