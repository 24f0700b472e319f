"""The invariant catalogue of checked mode.

Two layers:

* **component checks** — plain functions over one structure (a ``Cache``, a
  ``DirtyBlockIndex``, a ``WriteBuffer``...) that raise
  :class:`~repro.check.errors.InvariantViolation` on inconsistency. They are
  reused directly by the differential harness and by unit tests.
* **the registry** — :data:`INVARIANTS`, system-level wrappers the
  :class:`~repro.check.engine.CheckEngine` sweeps periodically and at end of
  run. All registry entries are cheap (structural scans); the
  writeback-conservation check lives in the engine's ledger because it needs
  event-level observation, not snapshots.

Catalogue (names are stable; tests and docs reference them):

===========================  ====================================================
``dbi-tag-agreement``        DBI mechanisms never set in-tag dirty bits; every
                             DBI-dirty block is present in the LLC; the dirty
                             population respects α·N (paper Section 2.1).
``dbi-structure``            entry valid ⇔ nonzero bit vector; the region→way
                             map is a bijection onto valid entries; bit vectors
                             fit the region granularity.
``cache-structure``          each cache's addr→way map is a bijection onto its
                             valid blocks, and every block sits in the set its
                             address hashes to.
``recency-sanity``           every recency stack (LLC LRU/DIP stacks, DBI LRW
                             stacks) is a permutation of the ways.
``dramcache-structure``      DRAM-cache tag array (and DBI, if configured)
                             structural consistency.
``dramcache-dirty-domain``   tag backend: no DBI; dbi backend: tag array
                             clean and every DBI-dirty block resident.
``mshr-bounds``              MSHR occupancy respects capacity; no registered
                             miss has an empty waiter list.
``writebuffer-bounds``       DRAM write-buffer occupancy ≤ capacity and its
                             FIFO and by-address views agree.
``port-sanity``              tag-port bookkeeping: queued work implies a grant
                             pass is pending (no silent stalls).
``core-bounds``              per-core outstanding loads ≤ the configured MSHR
                             bound.
``writeback-conservation``   (full mode, engine-owned) every dirty block is
                             written back exactly once or explicitly discarded.
``retry-consistency``        (runner-owned) a retried sweep job reproduces its
                             previously stored result exactly — a retry never
                             double-counts a writeback or any other stat.
===========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.check.errors import InvariantViolation


def _fail(name: str, detail: str) -> None:
    raise InvariantViolation(name, detail)


# ---------------------------------------------------------------------------
# Component-level checks (reused by the differential harness and tests).


def check_cache_structure(cache, label: str = None) -> None:
    """``cache-structure`` for one :class:`repro.cache.cache.Cache`.

    Proved from the lookup map plus one count of valid blocks. Every
    ``_where`` entry must name a way holding its address, in the set the
    address hashes to; distinct addresses then name distinct ways, so the
    map is one-to-one into the valid blocks. If the valid blocks number
    exactly ``len(_where)`` it is a bijection, which leaves no block cached
    twice, sitting in the wrong set or missing from the map. Only a cache
    that fails pays the per-way scan that names the fault.
    """
    addrs = cache._addr
    where = cache._where
    mask = cache._set_mask
    assoc = cache._assoc
    for addr, way in where.items():
        if not 0 <= way < assoc or addrs[(addr & mask) * assoc + way] != addr:
            break
    else:
        if len(addrs) - addrs.count(-1) == len(where):
            return
    _name_cache_fault(cache, label or cache.stats.name)


def _name_cache_fault(cache, label: str) -> None:
    """Per-way scan behind a failed ``cache-structure`` check."""
    name = "cache-structure"
    assoc = cache._assoc
    valid = {}
    for at, addr in enumerate(cache._addr):
        if addr == -1:
            continue
        set_idx, way = divmod(at, assoc)
        if addr in valid:
            _fail(name, f"{label}: block {addr:#x} cached twice")
        valid[addr] = (set_idx, way)
        if cache.set_index(addr) != set_idx:
            _fail(
                name,
                f"{label}: block {addr:#x} sits in set {set_idx} "
                f"but hashes to set {cache.set_index(addr)}",
            )
    for addr, way in cache._where.items():
        if addr not in valid:
            _fail(name, f"{label}: lookup map lists absent block {addr:#x}")
        if valid[addr][1] != way:
            _fail(
                name,
                f"{label}: lookup map places block {addr:#x} in way {way}, "
                f"tags have it in way {valid[addr][1]}",
            )
    if len(valid) != len(cache._where):
        missing = sorted(set(valid) - set(cache._where))[:4]
        _fail(
            name,
            f"{label}: {len(valid)} valid blocks but {len(cache._where)} "
            f"lookup entries (e.g. unmapped {['%#x' % a for a in missing]})",
        )
    _fail(name, f"{label}: lookup map and tag arrays disagree")


def check_recency_stacks(stacks, num_ways: int, label: str) -> None:
    """``recency-sanity`` for one list of per-set recency stacks."""
    name = "recency-sanity"
    expected = set(range(num_ways))
    for set_idx, stack in enumerate(stacks):
        if len(stack) != num_ways or set(stack) != expected:
            _fail(
                name,
                f"{label}: set {set_idx} recency stack {stack} is not a "
                f"permutation of 0..{num_ways - 1}",
            )


def check_policy_recency(policy, label: str) -> None:
    """Apply ``recency-sanity`` to any policy that keeps recency stacks."""
    stacks = getattr(policy, "_stacks", None)
    if stacks is not None:
        check_recency_stacks(stacks, policy.num_ways, label)


def check_dbi_structure(dbi) -> None:
    """``dbi-structure`` for one :class:`repro.core.dbi.DirtyBlockIndex`."""
    name = "dbi-structure"
    config = dbi.config
    valid = {}
    for set_idx, ways in enumerate(dbi.sets):
        for way, entry in enumerate(ways):
            if not entry.valid:
                if entry.bitvector:
                    _fail(
                        name,
                        f"invalid entry (set {set_idx} way {way}) holds "
                        f"bit vector {entry.bitvector:#x}",
                    )
                continue
            if entry.bitvector == 0:
                _fail(
                    name,
                    f"valid entry for region {entry.region_id} (set {set_idx} "
                    f"way {way}) has an empty bit vector",
                )
            if entry.bitvector >> config.granularity:
                _fail(
                    name,
                    f"region {entry.region_id} bit vector {entry.bitvector:#x} "
                    f"exceeds granularity {config.granularity}",
                )
            if config.set_of(entry.region_id) != set_idx:
                _fail(
                    name,
                    f"region {entry.region_id} stored in set {set_idx} but "
                    f"hashes to set {config.set_of(entry.region_id)}",
                )
            if entry.region_id in valid:
                _fail(name, f"region {entry.region_id} has two valid entries")
            valid[entry.region_id] = way
    if valid != dict(dbi._where):
        _fail(
            name,
            f"region→way map disagrees with the entry array: "
            f"map has {len(dbi._where)} regions, array has {len(valid)}",
        )
    if dbi.tracked_dirty_blocks > config.tracked_blocks:
        _fail(
            name,
            f"DBI tracks {dbi.tracked_dirty_blocks} dirty blocks, over its "
            f"α·N budget of {config.tracked_blocks}",
        )


def check_dbi_tag_agreement(mechanism, llc) -> None:
    """``dbi-tag-agreement`` for one mechanism over its LLC."""
    name = "dbi-tag-agreement"
    tagless = not mechanism.uses_tag_dirty_bits
    write_through = getattr(mechanism, "write_through", False)
    if (tagless or write_through) and llc.dirty_count:
        dirty = llc.dirty_blocks()[:4]
        _fail(
            name,
            f"{mechanism.name}: {llc.dirty_count} in-tag dirty bit(s) set "
            f"(e.g. {['%#x' % a for a in dirty]}) on a cache that must "
            f"keep tags clean",
        )
    dbi = getattr(mechanism, "dbi", None)
    if dbi is None or not tagless:
        return
    for block in dbi.all_dirty_blocks():
        if not llc.contains(block):
            _fail(
                name,
                f"{mechanism.name}: DBI marks block {block:#x} dirty but the "
                f"LLC does not hold it",
            )


def check_dramcache_dirty_domain(level) -> None:
    """``dramcache-dirty-domain`` for one DRAM-cache level.

    Under the tag backend the tag array owns all dirty state (no DBI
    exists); under the DBI backend the tag array must stay clean and every
    DBI-dirty block must be resident in the level — the DBI never tracks a
    block whose data left the stacked array.
    """
    name = "dramcache-dirty-domain"
    if level.backend.tag_dirty:
        if level.dbi is not None:
            _fail(name, "tag backend carries a DBI instance")
        return
    if level.tags.dirty_count:
        dirty = level.tags.dirty_blocks()[:4]
        _fail(
            name,
            f"dbi backend: {level.tags.dirty_count} in-tag dirty bit(s) set "
            f"(e.g. {['%#x' % a for a in dirty]}); the DBI is the sole "
            f"dirtiness authority",
        )
    for block in level.dbi.all_dirty_blocks():
        if not level.tags.contains(block):
            _fail(
                name,
                f"DBI marks block {block:#x} dirty but the DRAM cache does "
                f"not hold it",
            )


def check_mshr(mshr, label: str) -> None:
    """``mshr-bounds`` for one :class:`repro.cache.mshr.MshrFile`."""
    name = "mshr-bounds"
    if mshr.capacity and len(mshr) > mshr.capacity:
        _fail(name, f"{label}: {len(mshr)} misses in a {mshr.capacity}-entry file")
    for addr, waiters in mshr._pending.items():
        if not waiters:
            _fail(name, f"{label}: miss on block {addr:#x} has no waiters")


def check_write_buffer(write_buffer) -> None:
    """``writebuffer-bounds`` for the DRAM controller's write buffer."""
    name = "writebuffer-bounds"
    entries = write_buffer._entries
    by_addr = write_buffer._by_addr
    if len(entries) > write_buffer.capacity:
        _fail(
            name,
            f"{len(entries)} buffered writes exceed capacity "
            f"{write_buffer.capacity}",
        )
    addrs = [request.block_addr for request in entries]
    if len(set(addrs)) != len(addrs):
        _fail(name, "duplicate block address in the write buffer FIFO")
    if set(addrs) != set(by_addr):
        _fail(
            name,
            f"FIFO and by-address views disagree: {len(addrs)} queued vs "
            f"{len(by_addr)} indexed",
        )
    for request in entries:
        if not request.is_write:
            _fail(name, f"read request for block {request.block_addr:#x} buffered")


def check_port_sanity(port) -> None:
    """``port-sanity`` for the shared LLC tag port."""
    name = "port-sanity"
    if port.queued and not port._grant_pending:
        _fail(
            name,
            f"{port.queued} lookup(s) queued but no grant pass pending "
            f"(tag port stalled)",
        )


def check_retry_consistency(label: str, stored: dict, rerun: dict) -> None:
    """``retry-consistency`` between two executions of one sweep job.

    The simulator is deterministic, so a job retried after a worker crash
    (or executed concurrently by two sweeps) must reproduce the stored
    :class:`~repro.sim.system.SimulationResult` dict byte for byte. A
    divergence means an attempt double-counted a writeback or stat — e.g. a
    partially executed attempt leaked state into the retry.
    """
    name = "retry-consistency"
    if stored == rerun:
        return
    stored_stats = stored.get("stats") or {}
    rerun_stats = rerun.get("stats") or {}
    for stat in sorted(set(stored_stats) | set(rerun_stats)):
        if stored_stats.get(stat) != rerun_stats.get(stat):
            _fail(
                name,
                f"{label}: retried execution disagrees with the stored "
                f"result on stat {stat!r}: {stored_stats.get(stat)} stored "
                f"vs {rerun_stats.get(stat)} on retry (double-counted "
                f"writeback/stat?)",
            )
    diverging = sorted(
        field
        for field in set(stored) | set(rerun)
        if stored.get(field) != rerun.get(field)
    )
    _fail(
        name,
        f"{label}: retried execution diverges from the stored result on "
        f"field(s) {diverging}",
    )


def check_core_bounds(core) -> None:
    """``core-bounds`` for one :class:`repro.sim.core_model.OooCore`."""
    name = "core-bounds"
    if core.outstanding_loads > core.max_outstanding_loads:
        _fail(
            name,
            f"core {core.core_id}: {core.outstanding_loads} outstanding loads "
            f"exceed the limit of {core.max_outstanding_loads}",
        )


# ---------------------------------------------------------------------------
# System-level registry.


@dataclass(frozen=True)
class Invariant:
    """One registered system-wide check.

    ``fn`` returns True when the check actually examined state and False
    when it was vacuous for this system shape (e.g. ``dbi-structure`` on a
    mechanism without a DBI). The engine counts exercised sweeps per
    invariant; ``repro conformance`` uses those counts as coverage.
    """

    name: str
    description: str
    fn: Callable[[object], bool]


def _sys_dbi_tag_agreement(system) -> bool:
    check_dbi_tag_agreement(system.mechanism, system.llc)
    return True


def _sys_dbi_structure(system) -> bool:
    dbi = getattr(system.mechanism, "dbi", None)
    if dbi is None:
        return False
    check_dbi_structure(dbi)
    return True


def _sys_cache_structure(system) -> bool:
    check_cache_structure(system.llc)
    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is not None:
        for cache in list(hierarchy.l1s) + list(hierarchy.l2s):
            check_cache_structure(cache)
    return True


def _sys_recency_sanity(system) -> bool:
    check_policy_recency(system.llc.policy, "llc")
    dbi = getattr(system.mechanism, "dbi", None)
    if dbi is not None:
        check_policy_recency(dbi.policy, "dbi")
    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is not None:
        for cache in list(hierarchy.l1s) + list(hierarchy.l2s):
            check_policy_recency(cache.policy, cache.stats.name)
    level = getattr(system, "dram_cache", None)
    if level is not None:
        check_policy_recency(level.tags.policy, "dramcache")
        if level.dbi is not None:
            check_policy_recency(level.dbi.policy, "dramcache-dbi")
    return True


def _sys_dramcache_structure(system) -> bool:
    level = getattr(system, "dram_cache", None)
    if level is None:
        return False
    check_cache_structure(level.tags, "dramcache")
    if level.dbi is not None:
        check_dbi_structure(level.dbi)
    return True


def _sys_dramcache_dirty_domain(system) -> bool:
    level = getattr(system, "dram_cache", None)
    if level is None:
        return False
    check_dramcache_dirty_domain(level)
    return True


def _sys_mshr_bounds(system) -> bool:
    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is None:
        return False
    for index, mshr in enumerate(hierarchy.l1_mshrs):
        check_mshr(mshr, f"l1mshr{index}")
    return True


def _sys_writebuffer_bounds(system) -> bool:
    check_write_buffer(system.memory.write_buffer)
    level = getattr(system, "dram_cache", None)
    if level is not None:
        check_write_buffer(level.stacked.write_buffer)
    return True


def _sys_port_sanity(system) -> bool:
    check_port_sanity(system.port)
    return True


def _sys_core_bounds(system) -> bool:
    cores = tuple(getattr(system, "cores", ()))
    for core in cores:
        check_core_bounds(core)
    return bool(cores)


#: Ordered registry swept by the engine (cheap mode and up).
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "dbi-tag-agreement",
        "DBI↔tag-store dirty-bit agreement (paper Section 2.1)",
        _sys_dbi_tag_agreement,
    ),
    Invariant(
        "dbi-structure",
        "DBI entry valid⇔nonzero bit vector and region-map bijection",
        _sys_dbi_structure,
    ),
    Invariant(
        "cache-structure",
        "cache addr→way maps mirror the tag arrays at every level",
        _sys_cache_structure,
    ),
    Invariant(
        "recency-sanity",
        "replacement recency stacks are permutations of the ways",
        _sys_recency_sanity,
    ),
    Invariant(
        "dramcache-structure",
        "DRAM-cache tag array and DBI structural consistency",
        _sys_dramcache_structure,
    ),
    Invariant(
        "dramcache-dirty-domain",
        "DRAM-cache dirty state lives where the backend says it does",
        _sys_dramcache_dirty_domain,
    ),
    Invariant(
        "mshr-bounds",
        "MSHR occupancy and waiter-list sanity",
        _sys_mshr_bounds,
    ),
    Invariant(
        "writebuffer-bounds",
        "DRAM write-buffer occupancy and index consistency",
        _sys_writebuffer_bounds,
    ),
    Invariant(
        "port-sanity",
        "queued tag lookups always have a grant pass pending",
        _sys_port_sanity,
    ),
    Invariant(
        "core-bounds",
        "outstanding loads per core within the configured bound",
        _sys_core_bounds,
    ),
)


def invariant_names() -> List[str]:
    """Registry names plus the engine- and runner-owned checks (for docs/CLI)."""
    return [invariant.name for invariant in INVARIANTS] + [
        "writeback-conservation",
        "retry-consistency",
    ]
