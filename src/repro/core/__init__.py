"""The paper's contribution: the Dirty-Block Index.

:class:`DirtyBlockIndex` removes per-block dirty bits from the cache tag
store and tracks dirtiness in a small set-associative structure indexed by
DRAM row (or a sub-row *region* when the granularity is below a full row).
Each entry holds a region tag and a bit vector with one bit per block of the
region (paper Figure 1b).

Semantics (paper Section 2.1): **a cache block is dirty iff the DBI holds a
valid entry for its region and the block's bit in that entry is set.**

The structure gives the three properties Section 1 identifies:

1. It is much smaller than the tag store, so dirtiness queries are fast —
   enabling cache lookup bypass (CLB).
2. An entry lists every dirty block of a DRAM row at once — enabling
   aggressive DRAM-aware writeback (AWB) without probing the whole row.
3. It bounds the number of dirty blocks to ``alpha`` times the cache's
   capacity — enabling ECC storage for just the DBI-tracked blocks.
"""

from repro.core.coherence import CoherenceAdapter, EncodedState
from repro.core.config import DbiConfig
from repro.core.dbi import DbiEviction, DirtyBlockIndex
from repro.core.ecc import EccDomain
from repro.core.replacement import (
    DbiReplacementPolicy,
    LrwBipPolicy,
    LrwPolicy,
    MaxDirtyPolicy,
    MinDirtyPolicy,
    RwipPolicy,
    make_dbi_policy,
)

__all__ = [
    "CoherenceAdapter",
    "EncodedState",
    "DbiConfig",
    "DbiEviction",
    "DirtyBlockIndex",
    "EccDomain",
    "DbiReplacementPolicy",
    "LrwPolicy",
    "LrwBipPolicy",
    "RwipPolicy",
    "MaxDirtyPolicy",
    "MinDirtyPolicy",
    "make_dbi_policy",
]
