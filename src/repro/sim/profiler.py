"""Per-component time-share profiling of the event loop.

The event kernel exposes one hook — ``EventQueue.profiler`` — that, when set,
runs every callback through the profiler instead of calling it directly. The
profiler wall-clocks each callback and attributes the time to the component
that owns it (core front-end, hierarchy plumbing, LLC mechanism, tag port,
DRAM controller, …), derived from the module of the function that runs: a
callback is first unwrapped through ``functools.partial`` objects, bound
methods, the mechanism trampolines (``_invoke``, ``_deliver_block``) and
``MemoryRequest.fire_completion`` (which runs its ``on_complete``), so every
partial of one method shares one site row.

Profiling is strictly observational: it never touches the queue's clock,
event accounting or any simulator state, so a profiled run produces results
byte-identical to an unprofiled one (``tests/sim/test_profiler.py`` pins
this). When the hook is unset — the default — the kernel pays a single
``is None`` attribute test per event.

Used by the ``repro profile`` CLI subcommand and ``tools/perf_gate.py``.
"""

from __future__ import annotations

import functools
import time as _time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Module-prefix → component label, most specific first.
_COMPONENT_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.core_model", "core"),
    ("repro.sim.hierarchy", "hierarchy"),
    ("repro.cache.port", "llc-port"),
    ("repro.cache", "cache"),
    ("repro.mechanisms", "mechanism"),
    ("repro.dramcache", "dramcache"),
    ("repro.dram", "dram"),
    ("repro.core", "dbi"),
    ("repro.check", "check"),
    ("repro.telemetry", "telemetry"),
    ("repro.sim", "sim"),
)

#: Partial targets whose first argument is the code that runs.
_TRAMPOLINES = frozenset(
    {("repro.mechanisms.base", "_invoke"), ("repro.mechanisms.base", "_deliver_block")}
)
#: Bound methods that run ``self.on_complete``.
_FORWARDERS = frozenset({("repro.dram.request", "MemoryRequest.fire_completion")})


def component_of(module: str) -> str:
    """Map a callback's defining module to a component label."""
    for prefix, label in _COMPONENT_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return label
    return "other"


def _site(fn) -> Tuple[str, str]:
    return (
        getattr(fn, "__module__", None) or "?",
        getattr(fn, "__qualname__", None) or type(fn).__qualname__,
    )


def callback_site(callback: Callable) -> Tuple[str, str]:
    """``(module, qualname)`` of the function a queued callback runs."""
    fn = callback
    while True:
        if isinstance(fn, functools.partial):
            fn = fn.args[0] if _site(fn.func) in _TRAMPOLINES else fn.func
        elif isinstance(fn, types.MethodType):
            if _site(fn.__func__) in _FORWARDERS:
                fn = fn.__self__.on_complete
            else:
                fn = fn.__func__
        else:
            return _site(fn)


class SimProfiler:
    """Aggregates per-callback-site wall time; attach via ``queue.profiler``.

    Example:
        >>> from repro.utils.events import EventQueue
        >>> queue = EventQueue()
        >>> profiler = SimProfiler()
        >>> queue.profiler = profiler
        >>> _ = queue.schedule(1, lambda: None)
        >>> queue.run()
        >>> profiler.calls
        1
    """

    def __init__(self) -> None:
        # (module, qualname) -> [calls, seconds]
        self._sites: Dict[Tuple[str, str], List[float]] = {}
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, callback: Callable[[], None]) -> None:
        t0 = _time.perf_counter()
        try:
            callback()
        finally:
            self._charge(callback_site(callback), _time.perf_counter() - t0)

    def _charge(self, key: Tuple[str, str], elapsed: float) -> None:
        site = self._sites.get(key)
        if site is None:
            self._sites[key] = [1, elapsed]
        else:
            site[0] += 1
            site[1] += elapsed
        self.calls += 1
        self.seconds += elapsed

    def timed(self, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call is charged like a callback.

        For work the kernel runs outside its callbacks: it calls the
        telemetry sampler directly before a bucket fires, so ``System``
        wraps the sampler's ``sample`` with this when both are attached.
        """
        key = callback_site(fn)

        def run(*args, **kwargs):
            t0 = _time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(key, _time.perf_counter() - t0)

        return run

    # ------------------------------------------------------------ reporting

    def component_shares(self) -> Dict[str, Tuple[int, float]]:
        """``{component: (calls, seconds)}`` aggregated over callback sites."""
        shares: Dict[str, List[float]] = {}
        for (module, _qualname), (calls, seconds) in self._sites.items():
            label = component_of(module)
            entry = shares.setdefault(label, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        return {
            label: (int(calls), seconds)
            for label, (calls, seconds) in shares.items()
        }

    def top_sites(self, limit: int = 10) -> List[Tuple[str, int, float]]:
        """The costliest callback sites: ``(site, calls, seconds)``."""
        rows = [
            (f"{module}:{qualname}", int(calls), seconds)
            for (module, qualname), (calls, seconds) in self._sites.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:limit]

    def to_dict(self, wall_seconds: Optional[float] = None) -> Dict:
        """Plain-data report (the ``repro profile --json`` payload)."""
        total = self.seconds or 1e-12
        return {
            "events_profiled": self.calls,
            "callback_seconds": self.seconds,
            "wall_seconds": wall_seconds,
            "components": {
                label: {
                    "calls": calls,
                    "seconds": seconds,
                    "share": seconds / total,
                }
                for label, (calls, seconds) in sorted(
                    self.component_shares().items(),
                    key=lambda item: -item[1][1],
                )
            },
            "top_sites": [
                {"site": site, "calls": calls, "seconds": seconds}
                for site, calls, seconds in self.top_sites()
            ],
        }

    def to_text(self, wall_seconds: Optional[float] = None) -> str:
        """Human-readable time-share table."""
        lines = []
        total = self.seconds or 1e-12
        lines.append(
            f"profiled {self.calls} callbacks, "
            f"{self.seconds:.3f}s inside callbacks"
            + (f" ({wall_seconds:.3f}s wall)" if wall_seconds is not None else "")
        )
        lines.append(f"{'component':<12} {'calls':>10} {'seconds':>9} {'share':>7}")
        for label, (calls, seconds) in sorted(
            self.component_shares().items(), key=lambda item: -item[1][1]
        ):
            lines.append(
                f"{label:<12} {calls:>10} {seconds:>9.3f} {seconds / total:>6.1%}"
            )
        lines.append("")
        lines.append("top callback sites:")
        for site, calls, seconds in self.top_sites():
            lines.append(f"  {seconds:>8.3f}s {calls:>9} calls  {site}")
        return "\n".join(lines)
