"""Property-based campaign over the DRAM-cache level (slow; fuzz-marked).

Three families of properties, run with ``pytest -m "slow or fuzz"``:

* **backend agreement** — the tag-dirty and DBI backends are different
  bookkeeping over the same datapath: identical serialized request streams
  must leave identical tag-array contents, and a block the DBI still calls
  dirty must be dirty under the tag backend too (the DBI only ever cleans
  *earlier*, by writing the data off-chip).
* **zero data loss** — every clean→dirty transition is balanced by exactly
  one off-chip write by the time the level drains, whatever mix of demand
  evictions, AWB row drains and DBI displacements did the cleaning.
* **whole-system agreement** — random traces through a full checked system
  with the level attached never trip the invariant engine, and random
  serialized streams match the untimed oracle exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.differential import assert_check_diff
from repro.dram.request import MemoryRequest
from repro.sim.system import System
from repro.sim.trace import Trace

from tests.check.conftest import random_trace, small_config
from tests.dramcache.conftest import make_level, small_level_config

pytestmark = [pytest.mark.slow, pytest.mark.fuzz]

FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (is_write, block address) — footprint a few times the level's capacity
#: so evictions, AWB drains and DBI displacements all fire.
ops_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
    min_size=10,
    max_size=150,
)


def drive_serialized(level, queue, ops):
    for is_write, addr in ops:
        if is_write:
            level.enqueue_write(MemoryRequest(block_addr=addr, is_write=True))
        else:
            level.enqueue_read(MemoryRequest(block_addr=addr, is_write=False))
        queue.run()
    assert level.is_idle()


class Recorder:
    """Counts dirty transitions via the standard observer protocol."""

    def __init__(self):
        self.dirtied = 0

    def on_block_dirtied(self, addr):
        self.dirtied += 1

    def on_block_cleaned(self, addr):
        pass

    def on_dirty_evicted(self, addr):
        pass

    def on_dirty_invalidated(self, addr):
        pass


@settings(max_examples=30, **FUZZ_SETTINGS)
@given(ops=ops_strategy)
def test_backend_presence_and_dirtiness_agreement(ops):
    queue_tag, tag_level, _ = make_level("tag")
    queue_dbi, dbi_level, _ = make_level("dbi")
    drive_serialized(tag_level, queue_tag, ops)
    drive_serialized(dbi_level, queue_dbi, ops)

    tag_contents = {b.addr for b in tag_level.tags.iter_valid_blocks()}
    dbi_contents = {b.addr for b in dbi_level.tags.iter_valid_blocks()}
    assert tag_contents == dbi_contents
    # The DBI cleans early (displacement, AWB) but never invents dirtiness.
    assert dbi_level.dirty_blocks() <= tag_level.dirty_blocks()
    tag_level.check_invariants()
    dbi_level.check_invariants()


@settings(max_examples=30, **FUZZ_SETTINGS)
@given(
    ops=ops_strategy,
    backend=st.sampled_from(["tag", "dbi"]),
    granularity=st.sampled_from([4, 8]),
)
def test_no_dirty_data_is_ever_lost(ops, backend, granularity):
    """dirtied == written off-chip + still dirty, at every drain point."""
    queue, level, _ = make_level(backend, dbi_granularity=granularity)
    recorder = Recorder()
    level.tags.observer = recorder
    if level.dbi is not None:
        level.dbi.observer = recorder
    drive_serialized(level, queue, ops)
    offchip_writes = level.stats.offchip_writes
    assert recorder.dirtied == offchip_writes + len(level.dirty_blocks())
    # Dirtiness only ever refers to blocks the level actually holds.
    contents = {b.addr for b in level.tags.iter_valid_blocks()}
    assert level.dirty_blocks() <= contents


@settings(max_examples=10, **FUZZ_SETTINGS)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.booleans(),
            st.integers(min_value=0, max_value=767),
        ),
        min_size=20,
        max_size=100,
    ),
    backend=st.sampled_from(["tag", "dbi"]),
)
def test_fuzz_level_differential(records, backend):
    """Random serialized stream: timing level and RefDramCache must agree."""
    trace = Trace("fuzz", records)
    assert_check_diff([trace], mechanisms=["baseline"], dram_cache=backend)


@settings(max_examples=8, **FUZZ_SETTINGS)
@given(
    seed=st.integers(min_value=1, max_value=2**16),
    write_fraction=st.floats(min_value=0.1, max_value=0.9),
    backend=st.sampled_from(["tag", "dbi"]),
    mechanism=st.sampled_from(["baseline", "dbi+awb"]),
)
def test_fuzz_full_check_system_with_level(
    seed, write_fraction, backend, mechanism
):
    """Full-timing runs with the level never trip the invariant engine."""
    trace = random_trace(
        refs=400, seed=seed, write_fraction=write_fraction, footprint=4096
    )
    config = small_config(
        mechanism, dram_cache=small_level_config(backend)
    )
    system = System(config, [trace], check="full")
    system.run()
    assert system.check_engine.sweeps >= 1
    assert system.dram_cache.is_idle()
