"""Skip Cache's epoch-based miss predictor [44].

Execution is divided into fixed-length epochs. During each epoch the
predictor observes the LLC hit/miss outcomes of each core's accesses to a
small sample of *monitor sets* (set sampling [41]). If a core's sampled miss
rate exceeded the threshold (0.95 in the paper) in the previous epoch, all of
that core's accesses in the current epoch — except those mapping to monitor
sets, which keep training the predictor — are predicted to miss.

Both the Skip Cache mechanism and the DBI's CLB optimization use this
predictor (paper Table 2 and Section 3.2).
"""

from __future__ import annotations

from typing import List

from repro.utils.stats import StatRecord
from repro.utils.validation import check_positive, check_range


class PredictorStats(StatRecord):
    """Epochs rolled and accesses predicted to miss."""

    __slots__ = ("epochs", "miss_predictions")


class MissPredictor:
    """Per-core epoch miss-rate monitor with set sampling."""

    def __init__(
        self,
        num_cores: int,
        num_sets: int,
        threshold: float = 0.95,
        epoch_cycles: int = 250_000,
        sample_modulus: int = 32,
        sample_offset: int = 7,
    ) -> None:
        check_positive("num_cores", num_cores)
        check_positive("num_sets", num_sets)
        check_range("threshold", threshold, 0.0, 1.0)
        check_positive("epoch_cycles", epoch_cycles)
        check_positive("sample_modulus", sample_modulus)
        self.num_cores = num_cores
        self.num_sets = num_sets
        self.threshold = threshold
        self.epoch_cycles = epoch_cycles
        self.sample_modulus = min(sample_modulus, num_sets)
        self.sample_offset = sample_offset % self.sample_modulus
        self.stats = PredictorStats("predictor")
        self._epoch_start = 0
        self._misses: List[int] = [0] * num_cores
        self._accesses: List[int] = [0] * num_cores
        self._predict_miss: List[bool] = [False] * num_cores

    @property
    def bypassing_cores(self) -> int:
        """Cores whose accesses are currently predicted to miss (stat-free;
        telemetry reads this without rolling the epoch forward)."""
        return sum(self._predict_miss)

    def is_monitor_set(self, set_idx: int) -> bool:
        """Monitor sets are never bypassed; they keep training the predictor."""
        return set_idx % self.sample_modulus == self.sample_offset

    def _maybe_roll_epoch(self, now: int) -> None:
        if now - self._epoch_start < self.epoch_cycles:
            return
        for core in range(self.num_cores):
            accesses = self._accesses[core]
            if accesses > 0:
                # Epochs with no sampled accesses keep the previous verdict.
                miss_rate = self._misses[core] / accesses
                self._predict_miss[core] = miss_rate > self.threshold
            self._misses[core] = 0
            self._accesses[core] = 0
        self._epoch_start = now
        self.stats.epochs += 1

    def record_outcome(self, core_id: int, set_idx: int, hit: bool, now: int) -> None:
        """Train on an observed lookup outcome (monitor sets only)."""
        self._maybe_roll_epoch(now)
        if core_id < 0 or not self.is_monitor_set(set_idx):
            return
        self._accesses[core_id] += 1
        if not hit:
            self._misses[core_id] += 1

    def predicts_miss(self, core_id: int, set_idx: int, now: int) -> bool:
        """Should this access skip the tag lookup?"""
        self._maybe_roll_epoch(now)
        if core_id < 0 or self.is_monitor_set(set_idx):
            return False
        prediction = self._predict_miss[core_id]
        if prediction:
            self.stats.miss_predictions += 1
        return prediction
