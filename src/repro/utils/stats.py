"""Component statistics as slot records.

Each component declares one record class next to itself: a ``__slots__``
subclass of :class:`StatRecord` whose slots are its counts, all ints that
start at 0. Hot paths increment a slot in place (``self.stats.lookups +=
1``); there is no per-stat object to find or bind first. A rate is a
``<rate>_hits``/``<rate>_total`` slot pair named in ``RATES``; a
distribution is a ``<dist>_count``/``<dist>_sum`` pair named in
``DISTRIBUTIONS``; a per-core count is a slot named in ``PER_CORE`` that
holds a dict from core id to count. The schema is worked out once per
class, when the class is created.

Export rule: a stat is exported iff it was incremented at least once. A
count that is still 0 was never incremented, unless :meth:`StatRecord.reset`
zeroed it (the record remembers every field that was non-zero then) or
:meth:`StatRecord.add` added a 0 to it.

Example:
    >>> class LlcStats(StatRecord):
    ...     __slots__ = ("tag_lookups", "evictions")
    >>> stats = LlcStats("llc")
    >>> stats.tag_lookups += 1
    >>> stats.as_dict()
    {'llc.tag_lookups': 1}
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Tuple


class StatRecord:
    """Base of the per-component stat records (see the module docstring)."""

    __slots__ = ("name", "_kept")

    #: Rates: each name ``r`` is the slot pair ``r_hits``/``r_total``,
    #: exported as ``r`` (the hit fraction), ``r.hits`` and ``r.total``.
    RATES: Tuple[str, ...] = ()
    #: Distributions: each name ``d`` is the slot pair ``d_count``/``d_sum``,
    #: exported as ``d.mean`` and ``d.count``.
    DISTRIBUTIONS: Tuple[str, ...] = ()
    #: Per-core counts: each name ``c`` is a slot holding ``{core: count}``,
    #: exported as ``c<core>`` for every core counted, in core order.
    PER_CORE: Tuple[str, ...] = ()
    #: Every int slot, in declaration order (set per class).
    FIELDS: Tuple[str, ...] = ()
    #: The slots that are plain counters: FIELDS minus the rate and
    #: distribution pairs (set per class).
    COUNTERS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.FIELDS + tuple(
            slot
            for slot in cls.__dict__.get("__slots__", ())
            if slot not in cls.PER_CORE
        )
        paired = set()
        for rate in cls.RATES:
            paired.update((f"{rate}_hits", f"{rate}_total"))
        for dist in cls.DISTRIBUTIONS:
            paired.update((f"{dist}_count", f"{dist}_sum"))
        cls.FIELDS = fields
        cls.COUNTERS = tuple(field for field in fields if field not in paired)
        # One generated __init__ per class zeroes every slot: a record costs
        # one call to build, however many fields it has.
        body = "".join(f"    self.{field} = 0\n" for field in fields) + "".join(
            f"    self.{field} = {{}}\n" for field in cls.PER_CORE
        )
        namespace: Dict[str, object] = {}
        exec(
            "def __init__(self, name):\n"
            "    self.name = name\n"
            "    self._kept = _NONE\n" + body,
            {"_NONE": _NONE},
            namespace,
        )
        cls.__init__ = namespace["__init__"]

    def add(self, field: str, amount: int) -> None:
        """Cold-path ``field += amount`` that exports the field even for 0."""
        setattr(self, field, getattr(self, field) + amount)
        if not amount:
            self._kept = self._kept | {field}

    def reset(self) -> None:
        """Zero every count, remembering which ones were exported."""
        kept = self._kept
        self._kept = frozenset(
            field for field in self.FIELDS if getattr(self, field) or field in kept
        )
        for field in self.FIELDS:
            setattr(self, field, 0)
        for field in self.PER_CORE:
            counts = getattr(self, field)
            for core in counts:
                counts[core] = 0

    # --------------------------------------------------------------- reads

    def counters(self) -> Iterator[Tuple[str, int]]:
        """``(name, value)`` of every exported counter."""
        kept = self._kept
        for field in self.COUNTERS:
            value = getattr(self, field)
            if value or field in kept:
                yield field, value
        for field in self.PER_CORE:
            counts = getattr(self, field)
            for core in sorted(counts):
                yield f"{field}{core}", counts[core]

    def rates(self) -> Iterator[Tuple[str, int, int]]:
        """``(name, hits, total)`` of every exported rate."""
        kept = self._kept
        for rate in self.RATES:
            total = getattr(self, f"{rate}_total")
            if total or f"{rate}_total" in kept:
                yield rate, getattr(self, f"{rate}_hits"), total

    def distributions(self) -> Iterator[Tuple[str, int, int]]:
        """``(name, count, sum)`` of every exported distribution."""
        kept = self._kept
        for dist in self.DISTRIBUTIONS:
            count = getattr(self, f"{dist}_count")
            if count or f"{dist}_count" in kept:
                yield dist, count, getattr(self, f"{dist}_sum")

    def as_dict(self) -> Dict[str, float]:
        """Flatten to ``{"group.stat": value}``; rates export hits/total too."""
        prefix = self.name
        out: Dict[str, float] = {}
        for name, value in self.counters():
            out[f"{prefix}.{name}"] = value
        for name, hits, total in self.rates():
            out[f"{prefix}.{name}"] = hits / total if total else 0.0
            out[f"{prefix}.{name}.hits"] = hits
            out[f"{prefix}.{name}.total"] = total
        for name, count, total in self.distributions():
            out[f"{prefix}.{name}.mean"] = total / count if count else 0.0
            out[f"{prefix}.{name}.count"] = count
        return out


_NONE: FrozenSet[str] = frozenset()
