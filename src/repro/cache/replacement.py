"""Cache replacement policies.

Implements the policies the paper evaluates or compares against:

* LRU — the baseline's policy.
* BIP — bimodal insertion (insert at LRU, promote with probability 1/64).
* DIP / TA-DIP [18, 42] — set dueling between LRU and BIP insertion with a
  per-thread policy selector (all non-baseline mechanisms in Table 2 use it).
* SRRIP / BRRIP / DRRIP [19] — re-reference interval prediction, used in the
  Section 6.5 replacement-policy sensitivity study.
* Random — a testing/ablation aid.

All policies share one interface driven by the functional cache:
``on_hit``/``on_insert``/``on_invalidate``/``victim_way``/``note_miss``.
Coin flips draw from a :class:`DeterministicRng` so runs are reproducible.

The recency-stack policies sit on every cache access, so their hot methods
are flat: LRU's ``on_hit``/``on_insert`` *are* ``_touch_mru``, and TA-DIP
reads its dueling map directly. TA-DIP draws the BIP coin only on BIP-style
insertions, so the RNG draw sequence — and every result — is that of the
layered version.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.utils.rng import DeterministicRng
from repro.utils.validation import check_positive


class ReplacementPolicy(abc.ABC):
    """Interface between a tag store and its replacement state."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        check_positive("num_sets", num_sets)
        check_positive("num_ways", num_ways)
        self.num_sets = num_sets
        self.num_ways = num_ways

    #: True for set-dueling policies, whose ``note_miss`` votes; the cache
    #: skips the call for every other policy.
    duels = False

    @abc.abstractmethod
    def on_hit(self, set_idx: int, way: int, core_id: int = -1) -> None:
        """A block was re-referenced."""

    @abc.abstractmethod
    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        """A new block was installed in ``way``."""

    @abc.abstractmethod
    def victim_way(self, set_idx: int) -> int:
        """Pick the way to evict (all ways valid)."""

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """A block was removed; default: no bookkeeping."""

    def note_miss(self, set_idx: int, core_id: int = -1) -> None:
        """A demand miss occurred in this set (used by dueling policies)."""


class _RecencyStackPolicy(ReplacementPolicy):
    """Shared machinery for stack-based policies (LRU, BIP, DIP).

    Each set keeps its ways ordered from LRU (index 0) to MRU (last).
    """

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._stacks: List[List[int]] = [
            list(range(num_ways)) for _ in range(num_sets)
        ]

    def _touch_mru(self, set_idx: int, way: int, core_id: int = -1) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        stack.append(way)

    def _demote_lru(self, set_idx: int, way: int) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        stack.insert(0, way)

    on_hit = _touch_mru

    def victim_way(self, set_idx: int) -> int:
        return self._stacks[set_idx][0]

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._demote_lru(set_idx, way)

    def recency_position(self, set_idx: int, way: int) -> int:
        """0 = LRU ... num_ways-1 = MRU. Used by VWQ's Set State Vector."""
        return self._stacks[set_idx].index(way)

    def lru_half_ways(self, set_idx: int) -> List[int]:
        """The ways currently in the less-recent half of the stack."""
        return list(self._stacks[set_idx][: self.num_ways // 2])


class LruPolicy(_RecencyStackPolicy):
    """Classic least-recently-used (paper's Baseline)."""

    on_insert = _RecencyStackPolicy._touch_mru


class BipPolicy(_RecencyStackPolicy):
    """Bimodal insertion [42]: insert at LRU, promote to MRU with prob ε."""

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rng: Optional[DeterministicRng] = None,
        epsilon: float = 1.0 / 64.0,
    ) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = rng or DeterministicRng(seed=0xB1B)
        self.epsilon = epsilon

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        if self._rng.chance(self.epsilon):
            self._touch_mru(set_idx, way)
        else:
            self._demote_lru(set_idx, way)


class PolicySelector:
    """A saturating policy-selection counter (PSEL) for set dueling."""

    def __init__(self, bits: int = 10) -> None:
        check_positive("bits", bits)
        self.maximum = (1 << bits) - 1
        self.value = 1 << (bits - 1)  # start undecided

    def vote_up(self) -> None:
        if self.value < self.maximum:
            self.value += 1

    def vote_down(self) -> None:
        if self.value > 0:
            self.value -= 1

    @property
    def prefers_second(self) -> bool:
        """True when the counter's MSB is set (policy A missing more)."""
        return self.value >= (self.maximum + 1) // 2


class DuelingMap:
    """Assigns leader sets for two competing policies, per thread.

    The set space is split into constituencies; inside constituency ``i``,
    thread ``t`` owns one leader set for policy A and one for policy B,
    following the constituency scheme of [42]. With too few sets for the
    requested leader count the number of constituencies degrades gracefully.
    """

    FOLLOWER = 0
    LEADER_A = 1
    LEADER_B = 2

    def __init__(self, num_sets: int, num_threads: int, leaders_per_policy: int = 32):
        check_positive("num_sets", num_sets)
        check_positive("num_threads", num_threads)
        self.num_threads = num_threads
        slots_needed = 2 * num_threads
        constituencies = min(leaders_per_policy, max(1, num_sets // slots_needed))
        constituency_size = num_sets // constituencies if constituencies else num_sets
        # role_of[set] = (role, owner_thread)
        self.role_of = [(self.FOLLOWER, -1)] * num_sets
        if constituency_size < slots_needed:
            # Not enough sets to duel for every thread; fall back to thread 0.
            slots_needed = 2
            num_threads = 1
        for c in range(constituencies):
            base = c * constituency_size
            for t in range(num_threads):
                a_set = base + 2 * t
                b_set = base + 2 * t + 1
                if b_set < num_sets:
                    self.role_of[a_set] = (self.LEADER_A, t)
                    self.role_of[b_set] = (self.LEADER_B, t)

    def role(self, set_idx: int):
        return self.role_of[set_idx]


class DipPolicy(_RecencyStackPolicy):
    """(TA-)DIP [18, 42]: set dueling between LRU and BIP insertion.

    With ``num_threads == 1`` this is plain DIP; with more threads each gets
    its own PSEL and leader sets (thread-aware DIP, paper Table 2).
    """

    duels = True

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        num_threads: int = 1,
        rng: Optional[DeterministicRng] = None,
        psel_bits: int = 10,
        epsilon: float = 1.0 / 64.0,
        leaders_per_policy: int = 32,
    ) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = rng or DeterministicRng(seed=0xD1B)
        self.epsilon = epsilon
        self.num_threads = num_threads
        self.selectors = [PolicySelector(psel_bits) for _ in range(num_threads)]
        self.dueling = DuelingMap(num_sets, num_threads, leaders_per_policy)

    def _insert_bip_style(self, set_idx: int, way: int) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        if self._rng.chance(self.epsilon):
            stack.append(way)
        else:
            stack.insert(0, way)

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        role = self.dueling.role_of[set_idx][0]
        if role == DuelingMap.FOLLOWER:
            selector = self.selectors[
                core_id % self.num_threads if core_id >= 0 else 0
            ]
            bip = selector.value >= (selector.maximum + 1) // 2
        else:
            bip = role == DuelingMap.LEADER_B
        if bip:
            self._insert_bip_style(set_idx, way)
        else:
            stack = self._stacks[set_idx]
            stack.remove(way)
            stack.append(way)

    def note_miss(self, set_idx: int, core_id: int = -1) -> None:
        role, owner = self.dueling.role_of[set_idx]
        if role == DuelingMap.FOLLOWER:
            return
        if owner != (core_id % self.num_threads if core_id >= 0 else 0):
            return
        selector = self.selectors[owner]
        if role == DuelingMap.LEADER_A:
            selector.vote_up()  # LRU leader missed: lean towards BIP
        else:
            selector.vote_down()  # BIP leader missed: lean towards LRU


class _RripBase(ReplacementPolicy):
    """Shared RRPV machinery for the RRIP family [19]."""

    def __init__(self, num_sets: int, num_ways: int, rrpv_bits: int = 2) -> None:
        super().__init__(num_sets, num_ways)
        check_positive("rrpv_bits", rrpv_bits)
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv: List[List[int]] = [
            [self.max_rrpv] * num_ways for _ in range(num_sets)
        ]

    def on_hit(self, set_idx: int, way: int, core_id: int = -1) -> None:
        self._rrpv[set_idx][way] = 0  # hit promotion: near-immediate re-reference

    def victim_way(self, set_idx: int) -> int:
        rrpvs = self._rrpv[set_idx]
        while True:
            for way, value in enumerate(rrpvs):
                if value == self.max_rrpv:
                    return way
            for way in range(self.num_ways):
                rrpvs[way] += 1

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = self.max_rrpv

    def _insert_long(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = self.max_rrpv - 1

    def _insert_distant(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = self.max_rrpv


class SrripPolicy(_RripBase):
    """Static RRIP: always insert with a long re-reference interval."""

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        self._insert_long(set_idx, way)


class BrripPolicy(_RripBase):
    """Bimodal RRIP: insert distant, occasionally long (prob ε)."""

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rng: Optional[DeterministicRng] = None,
        epsilon: float = 1.0 / 64.0,
        rrpv_bits: int = 2,
    ) -> None:
        super().__init__(num_sets, num_ways, rrpv_bits)
        self._rng = rng or DeterministicRng(seed=0xB441)
        self.epsilon = epsilon

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        if self._rng.chance(self.epsilon):
            self._insert_long(set_idx, way)
        else:
            self._insert_distant(set_idx, way)


class DrripPolicy(_RripBase):
    """Dynamic RRIP: set dueling between SRRIP and BRRIP insertion."""

    duels = True

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        num_threads: int = 1,
        rng: Optional[DeterministicRng] = None,
        psel_bits: int = 10,
        epsilon: float = 1.0 / 64.0,
        leaders_per_policy: int = 32,
        rrpv_bits: int = 2,
    ) -> None:
        super().__init__(num_sets, num_ways, rrpv_bits)
        self._rng = rng or DeterministicRng(seed=0xD441)
        self.epsilon = epsilon
        self.num_threads = num_threads
        self.selectors = [PolicySelector(psel_bits) for _ in range(num_threads)]
        self.dueling = DuelingMap(num_sets, num_threads, leaders_per_policy)

    def _thread(self, core_id: int) -> int:
        return core_id % self.num_threads if core_id >= 0 else 0

    def _insert_brrip(self, set_idx: int, way: int) -> None:
        if self._rng.chance(self.epsilon):
            self._insert_long(set_idx, way)
        else:
            self._insert_distant(set_idx, way)

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        role, _owner = self.dueling.role(set_idx)
        if role == DuelingMap.LEADER_A:
            self._insert_long(set_idx, way)
        elif role == DuelingMap.LEADER_B:
            self._insert_brrip(set_idx, way)
        elif self.selectors[self._thread(core_id)].prefers_second:
            self._insert_brrip(set_idx, way)
        else:
            self._insert_long(set_idx, way)

    def note_miss(self, set_idx: int, core_id: int = -1) -> None:
        role, owner = self.dueling.role(set_idx)
        if role == DuelingMap.FOLLOWER or owner != self._thread(core_id):
            return
        if role == DuelingMap.LEADER_A:
            self.selectors[owner].vote_up()
        else:
            self.selectors[owner].vote_down()


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (testing/ablation aid)."""

    def __init__(
        self, num_sets: int, num_ways: int, rng: Optional[DeterministicRng] = None
    ) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = rng or DeterministicRng(seed=0x4A4D)

    def on_hit(self, set_idx: int, way: int, core_id: int = -1) -> None:
        pass

    def on_insert(self, set_idx: int, way: int, core_id: int = -1) -> None:
        pass

    def victim_way(self, set_idx: int) -> int:
        return self._rng.randint(0, self.num_ways - 1)


def make_policy(
    name: str,
    num_sets: int,
    num_ways: int,
    num_threads: int = 1,
    rng: Optional[DeterministicRng] = None,
) -> ReplacementPolicy:
    """Factory keyed by the policy names used in configs and Table 2."""
    key = name.lower()
    if key == "lru":
        return LruPolicy(num_sets, num_ways)
    if key == "bip":
        return BipPolicy(num_sets, num_ways, rng=rng)
    if key in ("dip", "tadip"):
        return DipPolicy(num_sets, num_ways, num_threads=max(1, num_threads), rng=rng)
    if key == "srrip":
        return SrripPolicy(num_sets, num_ways)
    if key == "brrip":
        return BrripPolicy(num_sets, num_ways, rng=rng)
    if key == "drrip":
        return DrripPolicy(num_sets, num_ways, num_threads=max(1, num_threads), rng=rng)
    if key == "random":
        return RandomPolicy(num_sets, num_ways, rng=rng)
    raise ValueError(f"unknown replacement policy {name!r}")
