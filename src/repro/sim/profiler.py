"""Exclusive time per layer of one simulation, from ``cProfile``.

:func:`profile_system` runs a built :class:`~repro.sim.system.System` under
``cProfile.Profile(builtins=False)``, which charges the time of builtins
(``list.append``, ``heapq.heappush``, calling a ``functools.partial``) to
the Python function that called them. Each profiled function's ``tottime``
and primitive calls are summed into the layer that owns its module, by
:data:`LAYER_PREFIXES`. Code outside every layer (``repro.sim.system`` and
the telemetry probes it defines, ``repro.core.config``,
``repro.utils.stats``) and the profiler's own bookkeeping fall in the
``unattributed`` row, which is wall time minus every layer, so the rows sum
to the profiled wall time exactly.

The layer names are the ones the benchmark's tracer (``perfbench/tracer.py``)
reports, so ``repro profile`` and a traced benchmark run answer "where did
the time go?" with the same rows. ``tests/sim/test_profiler.py`` checks that
the two tables agree.

Profiling only observes: a profiled run's results and telemetry records are
byte-identical to an unprofiled one's.

Used by the ``repro profile`` CLI subcommand.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Module prefix -> layer row, most specific first. The same table as
#: ``perfbench/tracer.py``'s.
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

#: Every row name, in table order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)
) + (UNATTRIBUTED,)

#: Rows of the report's costliest-functions list.
TOP_FUNCTIONS = 10

#: Directory holding the ``repro`` package, as code objects name it.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer that owns ``module``, or None outside every layer."""
    if not module:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _module_of(filename: str) -> Optional[str]:
    """The ``repro.*`` module defined in ``filename``, or None."""
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR + os.sep) or not path.endswith(".py"):
        return None
    parts = ["repro"] + os.path.relpath(path, _PACKAGE_DIR)[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class LayerProfile:
    """One profiled run: its result and where its wall time went."""

    result: object
    wall_seconds: float
    #: ``{layer: (primitive calls, self seconds)}`` for every layer that ran,
    #: costliest first, then :data:`UNATTRIBUTED`.
    layers: Dict[str, Tuple[int, float]]
    #: The costliest functions by self time: ``(function, calls, seconds)``.
    top_functions: List[Tuple[str, int, float]]

    def to_dict(self) -> Dict:
        """Plain-data report (the ``repro profile --json`` payload)."""
        return {
            "wall_seconds": self.wall_seconds,
            "layers": {
                layer: {
                    "calls": calls,
                    "self_s": seconds,
                    "share": seconds / self.wall_seconds,
                }
                for layer, (calls, seconds) in self.layers.items()
            },
            "top_functions": [
                {"function": name, "calls": calls, "self_s": seconds}
                for name, calls, seconds in self.top_functions
            ],
        }

    def to_text(self) -> str:
        """Human-readable self-time table."""
        lines = [f"{'layer':<13} {'calls':>10} {'self_s':>9} {'share':>7}"]
        for layer, (calls, seconds) in self.layers.items():
            lines.append(
                f"{layer:<13} {calls:>10} {seconds:>9.3f} "
                f"{seconds / self.wall_seconds:>6.1%}"
            )
        lines.append(f"{'sum':<13} {'':>10} {self.wall_seconds:>9.3f}")
        lines.append("")
        lines.append("top functions by self time:")
        for name, calls, seconds in self.top_functions:
            lines.append(f"  {seconds:>8.3f}s {calls:>9} calls  {name}")
        return "\n".join(lines)


def profile_system(system) -> LayerProfile:
    """Run ``system`` to completion under cProfile and tabulate its layers."""
    profile = cProfile.Profile(builtins=False)
    start = time.perf_counter()
    profile.enable()
    try:
        result = system.run()
    finally:
        profile.disable()
        wall = time.perf_counter() - start
    sums: Dict[str, List[float]] = {}
    functions = []
    for (filename, line, name), stat in pstats.Stats(profile).stats.items():
        calls, seconds = stat[0], stat[2]
        module = _module_of(filename)
        entry = sums.setdefault(layer_of(module) or UNATTRIBUTED, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds
        functions.append((f"{module or filename}:{line}({name})", calls, seconds))
    functions.sort(key=lambda row: (-row[2], row[0]))
    unattributed_calls = sums.pop(UNATTRIBUTED, [0])[0]
    layers = {
        layer: (int(calls), seconds)
        for layer, (calls, seconds) in sorted(
            sums.items(), key=lambda item: (-item[1][1], item[0])
        )
    }
    layers[UNATTRIBUTED] = (
        int(unattributed_calls),
        wall - sum(seconds for _, seconds in layers.values()),
    )
    return LayerProfile(result, wall, layers, functions[:TOP_FUNCTIONS])
