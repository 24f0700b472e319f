"""Set-associative cache substrate.

Functional tag stores plus the pieces the timing simulator composes:

* :class:`CacheConfig` / :class:`Cache` — a set-associative cache level with a
  pluggable replacement policy.
* Replacement policies: LRU, Random, BIP, DIP / TA-DIP (set dueling),
  SRRIP / BRRIP / DRRIP.
* :class:`TagPort` — the shared LLC tag-port model; every tag lookup (demand,
  writeback probe, proactive-writeback probe) occupies the port, which is how
  the simulation exposes the lookup-amplification of DAWB/VWQ versus DBI.
* :class:`MshrFile` — miss-status holding registers with same-block merging.

The *dirty bit* lives in the per-way ``_dirty`` list of each :class:`Cache`
tag store for conventional organizations; DBI-based mechanisms leave it
unused and track dirtiness in :class:`repro.core.dbi.DirtyBlockIndex` instead
(paper Figure 1).
"""

from repro.cache.cache import Cache, EvictedBlock
from repro.cache.config import (
    CacheConfig,
    paper_l1_config,
    paper_l2_config,
    paper_llc_config,
)
from repro.cache.mshr import MshrFile
from repro.cache.port import PortPriority, TagPort
from repro.cache.replacement import (
    BipPolicy,
    BrripPolicy,
    DipPolicy,
    DrripPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SrripPolicy,
    make_policy,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "EvictedBlock",
    "MshrFile",
    "PortPriority",
    "TagPort",
    "ReplacementPolicy",
    "LruPolicy",
    "RandomPolicy",
    "BipPolicy",
    "DipPolicy",
    "SrripPolicy",
    "BrripPolicy",
    "DrripPolicy",
    "make_policy",
    "paper_l1_config",
    "paper_l2_config",
    "paper_llc_config",
]
