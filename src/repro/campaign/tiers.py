"""Campaign tier presets: quick / nightly / full.

One name resolves to a complete :class:`CampaignConfig` — scale, workload
roster, mechanism list, trace lengths, sharding and sensitivity points —
so CI stages and the nightly soak invoke the same campaign shape with one
flag (``repro campaign run --tier nightly``) instead of a dozen.

The tiers form a cost ladder:

* **quick** — minutes. The full-width mix *tables* (102/259/120) at the
  quick scale with short traces and a benchmark subset; what the
  ``campaignfull`` CI stage runs on every push.
* **nightly** — an hour-ish. Quick scale, every benchmark and mechanism,
  longer traces, sharded long runs; the scheduled soak.
* **full** — the paper's Section 6 surface at the default scale. Run
  deliberately, resumable across days via the campaign journal.

Every preset leaves ``workers`` at 0 — parallelism is an execution choice,
not part of the campaign's identity — and explicit CLI flags override any
preset field (the soak gate shrinks the quick tier that way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.campaign.orchestrator import CampaignConfig
from repro.campaign.plan import DEFAULT_MECHANISMS
from repro.workloads.spec import profile_names

#: Figure-6-prominent subset used by the quick tier (write-intensive pair
#: plus a row-hit-friendly streamer and a cache-friendly control).
QUICK_BENCHMARKS = ("mcf", "lbm", "libquantum", "bzip2")


@dataclass(frozen=True)
class TierPreset:
    """Default campaign shape of one tier."""

    name: str
    scale: str
    benchmarks: Tuple[str, ...]
    mechanisms: Tuple[str, ...]
    core_counts: Tuple[int, ...]
    refs: int
    shards: int
    sensitivity: Tuple[int, ...]
    sensitivity_benchmarks: Tuple[str, ...]

    def config(self, **overrides) -> CampaignConfig:
        """A :class:`CampaignConfig` with this tier's defaults.

        Keyword overrides win over preset fields, so callers can shrink
        (the soak gate) or extend (an ingest registry) a tier without a
        bespoke preset. ``benchmarks=()`` resolves to the tier roster —
        empty means "unspecified" at the CLI.
        """
        fields = {
            "scale": self.scale,
            "benchmarks": self.benchmarks,
            "mechanisms": self.mechanisms,
            "core_counts": self.core_counts,
            "refs": self.refs,
            "tier": self.name,
            "full_width": True,
            "shards": self.shards,
            "sensitivity": self.sensitivity,
            "sensitivity_benchmarks": self.sensitivity_benchmarks,
        }
        for key, value in overrides.items():
            if key == "benchmarks" and not value:
                continue
            fields[key] = value
        return CampaignConfig(**fields)


TIERS: Dict[str, TierPreset] = {
    preset.name: preset
    for preset in (
        TierPreset(
            name="quick",
            scale="quick",
            benchmarks=QUICK_BENCHMARKS,
            mechanisms=("baseline", "dawb", "dbi+awb+clb"),
            core_counts=(1, 2, 4, 8),
            refs=256,
            shards=0,
            sensitivity=(1, 2, 4),
            sensitivity_benchmarks=("lbm", "mcf"),
        ),
        TierPreset(
            name="nightly",
            scale="quick",
            benchmarks=tuple(profile_names()),
            mechanisms=DEFAULT_MECHANISMS,
            core_counts=(1, 2, 4, 8),
            refs=2_000,
            shards=4,
            sensitivity=(1, 2, 4, 8),
            sensitivity_benchmarks=("lbm", "milc", "mcf"),
        ),
        TierPreset(
            name="full",
            scale="default",
            benchmarks=tuple(profile_names()),
            mechanisms=DEFAULT_MECHANISMS,
            core_counts=(1, 2, 4, 8),
            refs=30_000,
            shards=8,
            sensitivity=(1, 2, 4, 8),
            sensitivity_benchmarks=("lbm", "milc", "mcf"),
        ),
    )
}


def tier_config(name: str, **overrides) -> CampaignConfig:
    """Resolve a tier name (and optional overrides) to a campaign config."""
    preset = TIERS.get(name)
    if preset is None:
        raise ValueError(
            f"unknown tier {name!r}; choose from {sorted(TIERS)}"
        )
    return preset.config(**overrides)
