#!/usr/bin/env python
"""Checkpoint CI gate: restore equivalence, quarantine, fork speedup.

Three checks, each of which must pass:

1. **Restore equivalence** — a system snapshotted mid-run (with the full
   invariant engine attached) and restored must finish byte-identically to
   the uninterrupted run. This is the checkpoint subsystem's load-bearing
   guarantee; the gate re-proves it on every CI run, not just in the test
   suite.
2. **Corrupt- and stale-snapshot quarantine** — a warm image whose payload
   has been flipped, and one whose header claims another ``MODEL_VERSION``,
   must each be quarantined to ``.ckpt.corrupt`` (evidence preserved),
   rebuilt, and the rebuilt sweep must reproduce the original results.
3. **Fork+sampled speedup** — a quick-scale Figure 6 mechanism sweep run
   via fork-from-warm + sampled windows must beat the cold full-run sweep
   by at least ``--threshold`` (default 2.0x) wall-clock, *including* the
   warm-image build. Ratios on one machine are hardware-independent enough
   to gate on; absolute seconds are reported for context only.

Exit status 0 = all checks passed, 1 = at least one failed.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DEFAULT_THRESHOLD = 2.0
DEFAULT_BENCHMARK = "mcf"


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def check_restore_equivalence(benchmark: str) -> str:
    from repro.analysis.scaling import QUICK_SCALE
    from repro.checkpoint import restore_system, snapshot_system
    from repro.sim.system import System

    def fresh():
        trace = QUICK_SCALE.benchmark_trace(benchmark, refs=4_000)
        return System(
            QUICK_SCALE.system_config("dbi+awb+clb"), [trace], check="full"
        )

    system = fresh()
    for core in system.cores:
        core.start()
    system.queue.run(max_events=25_000)
    restored = restore_system(snapshot_system(system))
    expected = result_bytes(system.resume())
    actual = result_bytes(restored.resume())
    if actual != expected:
        raise AssertionError(
            "restored run diverged from the uninterrupted run"
        )
    return "restore-equivalence: restored run byte-identical under --check full"


def corrupt_payload(blob: bytes) -> bytes:
    """Flip one payload byte: the digest no longer checks out."""
    damaged = bytearray(blob)
    damaged[-10] ^= 0xFF
    return bytes(damaged)


def stale_stamp(blob: bytes) -> bytes:
    """Re-frame the image as written by another model version (payload and
    digest intact, so only the version check can refuse it)."""
    from repro.checkpoint.snapshot import MAGIC
    from repro.sim.system import MODEL_VERSION

    offset = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", blob, len(MAGIC))
    header = json.loads(blob[offset : offset + length])
    header["model_version"] = MODEL_VERSION + 1
    text = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(text)) + text + blob[offset + length :]


def check_quarantine(tmp: str, benchmark: str) -> str:
    from repro.analysis.runner import SweepRunner
    from repro.analysis.scaling import QUICK_SCALE

    trace = QUICK_SCALE.benchmark_trace(benchmark, refs=4_000)
    config = QUICK_SCALE.system_config("tadip")
    for kind, damage in (("corrupt", corrupt_payload), ("stale", stale_stamp)):
        ckpt = os.path.join(tmp, f"quarantine-{kind}-ckpt")
        with SweepRunner(
            workers=0, use_cache=False, progress=None, checkpoint_dir=ckpt
        ) as first:
            expected = result_bytes(first.run(config, [trace]))
        (image,) = [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
        path = os.path.join(ckpt, image)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(blob))
        with SweepRunner(
            workers=0, use_cache=False, progress=None, checkpoint_dir=ckpt
        ) as second:
            replay = result_bytes(second.run(config, [trace]))
        if second.checkpoints_quarantined != 1:
            raise AssertionError(f"{kind} warm image was not quarantined")
        if not os.path.exists(f"{path}.corrupt"):
            raise AssertionError(f"{kind} image left no .corrupt evidence file")
        if not os.path.exists(path):
            raise AssertionError(f"{kind} warm image was not rebuilt")
        if replay != expected:
            raise AssertionError(
                f"warm image rebuilt after a {kind} one produced different "
                "results"
            )
    return (
        "quarantine: corrupt and stale warm images quarantined, rebuilt, "
        "reproduced"
    )


def measure_speedup(tmp: str, benchmark: str, threshold: float) -> str:
    from repro.analysis.experiments import FIGURE6_MECHANISMS
    from repro.analysis.runner import SweepRunner
    from repro.analysis.scaling import QUICK_SCALE
    from repro.checkpoint.sampled import SampledConfig

    trace = QUICK_SCALE.benchmark_trace(benchmark)
    configs = [
        QUICK_SCALE.system_config(mech) for mech in FIGURE6_MECHANISMS
    ]

    start = time.perf_counter()
    with SweepRunner(workers=0, use_cache=False, progress=None) as cold:
        for config in configs:
            cold.run(config, [trace])
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with SweepRunner(
        workers=0,
        use_cache=False,
        progress=None,
        checkpoint_dir=os.path.join(tmp, "speedup-ckpt"),
        sampled=SampledConfig(),
    ) as fast:
        for config in configs:
            fast.run(config, [trace])
    fast_seconds = time.perf_counter() - start

    speedup = cold_seconds / fast_seconds if fast_seconds else float("inf")
    detail = (
        f"cold {cold_seconds:.2f}s, fork+sampled {fast_seconds:.2f}s "
        f"(incl. {fast.warm_images_built} warm build), {speedup:.2f}x over "
        f"{len(configs)} cells"
    )
    if speedup < threshold:
        raise AssertionError(
            f"fork+sampled speedup {speedup:.2f}x below the {threshold:.1f}x "
            f"gate ({detail})"
        )
    return f"speedup: {detail} >= {threshold:.1f}x gate"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"minimum fork+sampled speedup (default: {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--benchmark", default=DEFAULT_BENCHMARK,
        help=f"quick-scale benchmark to gate on (default: {DEFAULT_BENCHMARK})",
    )
    args = parser.parse_args(argv)

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        checks = (
            lambda: check_restore_equivalence(args.benchmark),
            lambda: check_quarantine(tmp, args.benchmark),
            lambda: measure_speedup(tmp, args.benchmark, args.threshold),
        )
        for check in checks:
            try:
                print(f"checkpoint-gate: ok — {check()}")
            except AssertionError as exc:
                print(f"checkpoint-gate: FAIL — {exc}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
