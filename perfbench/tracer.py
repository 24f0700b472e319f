"""Owner-attributing span tracer for the benchmark's traced run.

The tracer measures the simulator from outside: it edits no file under
``src/``. :meth:`Tracer.install` replaces every function and method defined
in a layer module (see :data:`LAYER_PREFIXES`) with a wrapper, and makes
every :class:`~repro.utils.events.EventQueue` built afterwards run its
callbacks through :meth:`Tracer.dispatch` (the queue's ``profiler`` hook).

Attribution rule: time is charged to the layer that *defines the code that
runs*, never to the code that scheduled or invoked it. A wrapper whose layer
differs from the running one opens a span; a call inside the same layer
passes straight through. The running layer's self time is the wall time
during which it is on top of the span stack, so the self times of all
layers, ``unattributed`` included (code outside every layer: ``run.py``,
``repro.sim.system``), add up to the traced wall time exactly.

Event callbacks are charged the same way: :meth:`Tracer.dispatch` unwraps
``functools.partial`` objects, bound methods, the mechanism trampolines
(``mechanisms.base._invoke`` / ``_deliver_block``) and
``MemoryRequest.fire_completion`` (whose ``on_complete`` runs the LLC fill
synchronously) before it looks up the owning module.

``<layer>.calls`` counts spans opened into a layer: entries from another
layer plus event callbacks the kernel dispatched to it. Calls within a
layer are not counted.

Tracer overhead (the wrappers themselves) lands in the self time of the
layer that made the traced call; the benchmark reports it as a whole as
``trace.overhead_frac``.
"""

from __future__ import annotations

import collections
import enum
import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer row, most specific first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.utils.events", "kernel"),
    ("repro.sim.core_model", "core"),
    ("repro.sim.hierarchy", "hierarchy"),
    ("repro.cache.port", "port"),
    ("repro.cache", "cache"),
    ("repro.mechanisms", "mechanism"),
    ("repro.core.dbi", "dbi"),
    ("repro.dram", "dram"),
    ("repro.dramcache", "dramcache"),
    ("repro.check", "check"),
    ("repro.telemetry", "telemetry"),
    ("repro.analysis.runner", "runner"),
    ("repro.checkpoint", "checkpoint"),
    ("repro.campaign", "campaign"),
    ("repro.workloads", "workloads"),
)

UNATTRIBUTED = "unattributed"

#: Every row of the self-time table, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)
) + (UNATTRIBUTED,)

#: Dunder methods worth a span; the rest (hashing, comparison, repr,
#: pickling) are either trivial or called from C where a span is noise.
_TRACED_DUNDERS = frozenset({"__init__", "__call__", "__len__"})

#: Functions whose calls are counted exactly: (module, qualname) ->
#: (count key for every call, count key for calls whose result matches,
#: predicate on the result).
COUNTED: Dict[Tuple[str, str], Tuple[str, Optional[str], Optional[Callable]]] = {
    ("repro.utils.events", "EventQueue.schedule"): ("kernel.scheduled", None, None),
    ("repro.utils.events", "Event.cancel"): ("kernel.cancels", None, None),
    ("repro.dram.request", "MemoryRequest.fire_completion"): (
        "dram.completions", None, None,
    ),
    ("repro.dram.controller", "MemoryController.enqueue_write"): (
        "dram.write_attempts", "dram.write_rejects", lambda accepted: accepted is False,
    ),
    ("repro.core.dbi", "DirtyBlockIndex.mark_dirty"): (
        "dbi.mark_dirty", "dbi.displacements", lambda eviction: eviction is not None,
    ),
    ("repro.sim.hierarchy", "Hierarchy.load"): (
        "hierarchy.loads", "hierarchy.l1_hits", lambda hit: hit is True,
    ),
    ("repro.mechanisms.base", "LlcMechanism._count_tag_lookup"): (
        "mechanism.tag_lookups", None, None,
    ),
    ("repro.campaign.journal", "CampaignJournal.append"): (
        "campaign.journal_appends", None, None,
    ),
}

#: Functions whose outermost calls are timed inclusively: (module,
#: qualname) -> timer key. Nested calls under the same key count once.
TIMED: Dict[Tuple[str, str], str] = {
    ("repro.campaign.journal", "CampaignJournal.append"): "campaign.journal_s",
    ("repro.checkpoint.shard", "stitch_shards"): "checkpoint.stitch_s",
    ("repro.workloads.spec", "generate_trace"): "workloads.trace_gen_s",
    ("repro.workloads.mix", "category_mixes"): "workloads.trace_gen_s",
    ("repro.workloads.mix", "mix_from_spec"): "workloads.trace_gen_s",
}

#: Futures whose first ``result()`` return closes a submit -> result wait
#: (``SweepFuture.started`` is stamped at submission).
WAITED: Dict[Tuple[str, str], str] = {
    ("repro.analysis.runner", "SweepFuture.result"): "runner.wait_s",
}

#: Event-callback trampolines: the code that runs is their first argument.
_TRAMPOLINES = (("repro.mechanisms.base", "_invoke"), ("repro.mechanisms.base", "_deliver_block"))
#: Bound methods that forward to ``self.on_complete``.
_FORWARDERS = (("repro.dram.request", "MemoryRequest.fire_completion"),)
#: Queue callbacks counted as controller wakes.
_WAKES = (("repro.dram.controller", "MemoryController._wake"),)


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer that owns ``module``, or None outside every layer."""
    if not module:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_modules() -> List[types.ModuleType]:
    """Import and return every ``repro`` module that belongs to a layer."""
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if layer_of(info.name) is not None:
            modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    """Per-layer self time, span counts and exact counts for one traced run.

    ``clock`` is injectable so tests can build an event graph whose self
    times are known exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layer = UNATTRIBUTED
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: collections.Counter = collections.Counter()
        self.timed_s: Dict[str, float] = collections.defaultdict(float)
        self._timed_depth: collections.Counter = collections.Counter()
        self._mark = 0.0
        self._started = 0.0
        self.wall_s = 0.0
        self._patches: List[Tuple[object, str, object]] = []
        self._owners: Dict[object, Tuple[str, bool]] = {}
        self._trampolines: set = set()
        self._forwarders: set = set()
        self._wakes: set = set()
        self._fork_hook_registered = False

    # ------------------------------------------------------------ clock

    def start(self) -> None:
        """Begin the traced interval; time until the first span is unattributed."""
        self.layer = UNATTRIBUTED
        self._started = self._mark = self.clock()

    def stop(self) -> float:
        """Close the traced interval; returns its wall time."""
        now = self.clock()
        self.self_s[self.layer] += now - self._mark
        self._mark = now
        self.wall_s = now - self._started
        return self.wall_s

    def enter(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` as a span of ``layer``."""
        clock = self.clock
        now = clock()
        parent = self.layer
        self.self_s[parent] += now - self._mark
        self.calls[layer] += 1
        self.layer = layer
        self._mark = now
        try:
            return fn(*args, **kwargs)
        finally:
            now = clock()
            self.self_s[layer] += now - self._mark
            self.layer = parent
            self._mark = now

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn: Callable, layer: str, key: Tuple[str, str]) -> Callable:
        tracer = self
        enter = self.enter
        counted = COUNTED.get(key)
        timer = TIMED.get(key)
        waited = WAITED.get(key)

        if waited is not None:
            resolved = set()

            @functools.wraps(fn)
            def traced(future, *args, **kwargs):
                if tracer.layer is layer:
                    result = fn(future, *args, **kwargs)
                else:
                    result = enter(layer, fn, (future,) + args, kwargs)
                if id(future) not in resolved:
                    resolved.add(id(future))
                    tracer.timed_s[waited] += time.perf_counter() - future.started
                return result

            return traced

        if counted is None and timer is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if tracer.layer is layer:
                    return fn(*args, **kwargs)
                return enter(layer, fn, args, kwargs)

            return traced

        counts = self.counts
        calls_key, match_key, predicate = counted or (None, None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls_key is not None:
                counts[calls_key] += 1
            if timer is not None:
                tracer._timed_depth[timer] += 1
                t0 = tracer.clock()
            try:
                if tracer.layer is layer:
                    result = fn(*args, **kwargs)
                else:
                    result = enter(layer, fn, args, kwargs)
            finally:
                if timer is not None:
                    tracer._timed_depth[timer] -= 1
                    if not tracer._timed_depth[timer]:
                        tracer.timed_s[timer] += tracer.clock() - t0
            if predicate is not None and predicate(result):
                counts[match_key] += 1
            return result

        return traced

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_class(self, cls: type, module: types.ModuleType, layer: str) -> Dict:
        replaced = {}
        filename = module.__file__
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _TRACED_DUNDERS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                rewrap = type(attr)
            elif isinstance(attr, property):
                fn = attr.fget
                rewrap = None
            else:
                fn = attr
                rewrap = lambda wrapped: wrapped  # noqa: E731
            if not _traceable(fn, filename):
                continue
            wrapper = self._wrap(fn, layer, (module.__name__, fn.__qualname__))
            replaced[fn] = wrapper
            if rewrap is None:
                new = property(wrapper, attr.fset, attr.fdel, attr.__doc__)
            else:
                new = rewrap(wrapper)
            self._patch(cls, name, new)
        return replaced

    def install(self, modules: Optional[List[types.ModuleType]] = None) -> None:
        """Wrap every layer function and hook every future EventQueue.

        Call before the ``System`` (or campaign) under test is built:
        objects created earlier keep unwrapped bound methods in their
        partials and queues.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = layer_modules() if modules is None else modules
        replaced: Dict[object, Callable] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            filename = module.__file__
            for name, value in list(vars(module).items()):
                if inspect.isclass(value):
                    if value.__module__ != module.__name__ or issubclass(
                        value, (enum.Enum, BaseException)
                    ):
                        continue
                    replaced.update(self._patch_class(value, module, layer))
                elif _traceable(value, filename):
                    wrapper = self._wrap(
                        value, layer, (module.__name__, value.__qualname__)
                    )
                    replaced[value] = wrapper
                    self._patch(module, name, wrapper)
        # `from x import f` copies f into the importer's namespace; point
        # every such copy at the wrapper too.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(module, attr, replaced[value])
        self._remember(replaced)
        self._hook_queues()
        if not self._fork_hook_registered:
            # Campaign workers fork from the traced parent; they run the
            # original code so their cost is not inflated by spans that are
            # never reported.
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook_registered = True

    def _remember(self, replaced: Dict[object, Callable]) -> None:
        def functions(targets):
            found = set()
            for fn in replaced:
                if (fn.__module__, fn.__qualname__) in targets:
                    found.update((fn, replaced[fn]))
            return found

        self._trampolines = functions(_TRAMPOLINES)
        self._forwarders = functions(_FORWARDERS)
        self._wakes = functions(_WAKES)

    def _hook_queues(self) -> None:
        from repro.utils.events import EventQueue

        init = EventQueue.__init__
        dispatch = self.dispatch

        @functools.wraps(init)
        def hooked_init(queue, *args, **kwargs):
            init(queue, *args, **kwargs)
            queue.profiler = dispatch

        self._patch(EventQueue, "__init__", hooked_init)

    def uninstall(self) -> None:
        """Restore every patched attribute (also run in forked children)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------ events

    def owner(self, callback: Callable) -> Tuple[str, bool]:
        """``(layer, is_controller_wake)`` of the code ``callback`` runs."""
        fn = callback
        while True:
            if isinstance(fn, functools.partial):
                fn = fn.args[0] if fn.func in self._trampolines else fn.func
            elif isinstance(fn, types.MethodType):
                if fn.__func__ in self._forwarders:
                    fn = fn.__self__.on_complete
                else:
                    fn = fn.__func__
            else:
                break
        cached = self._owners.get(fn)
        if cached is None:
            original = inspect.unwrap(fn)
            layer = layer_of(getattr(original, "__module__", None)) or UNATTRIBUTED
            cached = self._owners[fn] = (layer, fn in self._wakes)
        return cached

    def dispatch(self, callback: Callable[[], None]) -> None:
        """``EventQueue.profiler`` hook: run one event as a span of its owner."""
        layer, is_wake = self.owner(callback)
        counts = self.counts
        counts["kernel.events"] += 1
        if is_wake:
            counts["dram.wakes"] += 1
        self.enter(layer, callback, (), {})


def _traceable(fn: object, filename: str) -> bool:
    """A plain function whose code lives in ``filename`` (not generated)."""
    return (
        inspect.isfunction(fn)
        and fn.__code__.co_filename == filename
        and not inspect.isgeneratorfunction(fn)
    )
