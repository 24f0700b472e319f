"""Command-line interface: ``python -m repro <command>``.

Commands:
    list        — benchmarks, mechanisms and scale profiles available.
    run         — simulate one benchmark under one mechanism, print metrics.
    experiment  — regenerate one paper artifact (fig6 fig7 fig8 table3
                  table6 table7 case-study replacement drrip).
    reliability — Section 3.3 soft-error study: inject seeded single-bit
                  upsets and compare heterogeneous-ECC data loss between
                  DBI-tracked and untracked protection domains.
    check-diff  — differentially validate every mechanism against the
                  untimed golden reference model (see repro.check).
    profile     — run one benchmark/mechanism under cProfile and report
                  where simulation time goes (exclusive time per layer,
                  summing to wall time, and the costliest functions);
                  ``--dram-cache {tag,dbi}``, ``--check`` and
                  ``--telemetry`` profile the stacked, checked and
                  sampled paths.
    timeline    — per-epoch telemetry view of one run (or a saved JSONL
                  stream): ASCII sparklines and a table of any stat keys,
                  with the measured warmup boundary marked.

``run`` and ``experiment`` accept ``--check {off,cheap,full}`` to enable the
runtime invariant engine (off by default; results are identical either way),
and ``--telemetry``/``--epoch-cycles`` to attach the epoch sampler (also
observational: final statistics are byte-identical with it on or off).

Both also accept ``--sampled [SPEC]`` for SMARTS-style sampled simulation
(detailed measurement windows with functional fast-forward between them,
reported with 95% confidence intervals), and ``experiment`` accepts
``--checkpoint-dir DIR`` for fork-from-warm sweeps (one warm image per
benchmark/config group, every mechanism cell forked from it). Both are
documented approximations of full runs — cached under distinct keys, and
mutually exclusive with ``--check``/``--telemetry``.

``experiment`` is fault-tolerant: worker crashes and hangs are retried with
exponential backoff (``--max-attempts``, ``--job-timeout``), and
``--keep-going`` renders partial artifacts — failed cells become ``n/a`` and
the exhausted jobs land in ``results/sweep_failures.json``. ``--chaos`` (or
the ``REPRO_CHAOS`` environment variable) injects deterministic worker
crashes/hangs/cache corruption for testing that machinery. The same
variable schedules ``campaign run``'s orchestrator kills (journal seq,
warm build, cell image); it is read here and nowhere else.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.analysis.scaling import SCALES
    from repro.mechanisms.registry import MECHANISM_NAMES
    from repro.workloads.spec import profile_names

    print("benchmarks: ", ", ".join(profile_names()))
    print("mechanisms: ", ", ".join(MECHANISM_NAMES))
    print("scales:     ", ", ".join(sorted(SCALES)))
    return 0


def _cmd_run_sampled(args, config, trace) -> int:
    """``run --sampled``: SMARTS windows + per-metric confidence intervals."""
    from repro.checkpoint import run_sampled
    from repro.checkpoint.sampled import SampledConfig

    if args.check != "off" or args.telemetry:
        print(
            "--sampled does not compose with --check or --telemetry "
            "(functional fast-forward breaks the ledger invariants and "
            "the epoch stream)",
            file=sys.stderr,
        )
        return 2
    try:
        sampled_config = SampledConfig.parse(args.sampled)
    except ValueError as exc:
        print(f"bad --sampled spec: {exc}", file=sys.stderr)
        return 2
    outcome = run_sampled(config, [trace], sampled_config)
    result = outcome.result
    total = outcome.detailed_instructions + outcome.skipped_instructions
    print(f"benchmark          {args.benchmark}")
    print(f"mechanism          {args.mechanism}")
    print(f"IPC                {result.ipc[0]:.4f}")
    print(f"write row hit rate {result.write_row_hit_rate:.2%}")
    print(f"read row hit rate  {result.read_row_hit_rate:.2%}")
    print(f"tag lookups / ki   {result.tag_lookups_pki:.1f}")
    print(f"memory WPKI        {result.memory_wpki:.1f}")
    print(f"LLC MPKI           {result.llc_mpki:.1f}")
    print(
        f"sampling           {outcome.windows_run} windows, "
        f"{outcome.detailed_instructions} detailed + "
        f"{outcome.skipped_instructions} fast-forwarded instructions "
        f"({outcome.detailed_instructions / max(1, total):.0%} detailed)"
    )
    print("95% confidence intervals over the windows:")
    for name in sorted(outcome.estimates):
        estimate = outcome.estimates[name]
        print(
            f"  {name:<22s} {estimate.mean:10.4f}  "
            f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]  "
            f"n={estimate.samples}"
        )
    return 0


def _trace_and_config(args):
    """The trace and system config ``run``/``profile`` arguments describe."""
    from repro.analysis.scaling import SCALES

    scale = SCALES[args.scale]
    trace = scale.benchmark_trace(args.benchmark, refs=args.refs)
    overrides = {}
    if args.dram_cache is not None:
        overrides["dram_cache"] = scale.dram_cache_study_config(args.dram_cache)
    return trace, scale.system_config(args.mechanism, **overrides)


def _cmd_run(args) -> int:
    from repro.sim.system import System

    try:
        trace, config = _trace_and_config(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.sampled is not None:
        return _cmd_run_sampled(args, config, trace)
    try:
        telemetry = None
        if args.telemetry:
            from repro.telemetry.sampler import TelemetryConfig

            telemetry = TelemetryConfig(
                epoch_cycles=args.epoch_cycles,
                jsonl_path=args.telemetry,
                meta=(("benchmark", args.benchmark), ("mechanism", args.mechanism)),
            )
        system = System(config, [trace], check=args.check, telemetry=telemetry)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result = system.run()
    print(f"benchmark          {args.benchmark}")
    print(f"mechanism          {args.mechanism}")
    print(f"IPC                {result.ipc[0]:.4f}")
    print(f"write row hit rate {result.write_row_hit_rate:.2%}")
    print(f"read row hit rate  {result.read_row_hit_rate:.2%}")
    print(f"tag lookups / ki   {result.tag_lookups_pki:.1f}")
    print(f"memory WPKI        {result.memory_wpki:.1f}")
    print(f"LLC MPKI           {result.llc_mpki:.1f}")
    print(f"events processed   {result.events_processed}")
    if args.dram_cache is not None:
        reads = result.stats.get("dramcache.reads", 0)
        hits = result.stats.get("dramcache.read_hits", 0)
        print(f"dramcache backend  {args.dram_cache}")
        print(f"dramcache hit rate {hits / reads if reads else 0.0:.2%}")
        print(
            f"dramcache off-chip writes "
            f"{result.stats.get('dramcache.offchip_writes', 0):.0f}"
        )
    if system.telemetry is not None:
        from repro.telemetry.analysis import warmup_report

        report = warmup_report(list(system.telemetry.records))
        boundary = report["boundary_epoch"]
        print(f"epochs sampled     {system.telemetry.epochs_emitted}")
        if boundary is None:
            print("measured warmup    not reached (IPC never settled)")
        else:
            print(
                f"measured warmup    epoch {boundary} "
                f"({report['measured_warmup_fraction']:.0%} of instructions; "
                f"configured warmup is 40%)"
            )
            steady = report["steady_state"]
            print(f"steady-state IPC   {steady['ipc']:.4f}")
        print(f"telemetry written  {args.telemetry}")
    return 0


def chaos_from_env():
    """The ``REPRO_CHAOS`` spec as a ChaosConfig, or None when unset/off."""
    import os

    from repro.analysis.chaos import CHAOS_ENV, parse_chaos_spec

    return parse_chaos_spec(os.environ.get(CHAOS_ENV))


def make_sweep_runner(args):
    """Build the SweepRunner the --workers/--cache/--retry flags describe."""
    from repro.analysis.chaos import parse_chaos_spec
    from repro.analysis.runner import (
        DEFAULT_CACHE_DIR,
        RetryPolicy,
        SweepRunner,
        stderr_progress,
    )

    retry = RetryPolicy(
        max_attempts=getattr(args, "max_attempts", None) or 3,
        timeout=getattr(args, "job_timeout", None),
    )
    chaos_spec = getattr(args, "chaos", None)
    chaos = (
        parse_chaos_spec(chaos_spec) if chaos_spec is not None
        else chaos_from_env()
    )
    telemetry = None
    if getattr(args, "telemetry", False):
        from repro.telemetry.sampler import TelemetryConfig

        telemetry = TelemetryConfig(
            epoch_cycles=getattr(args, "epoch_cycles", None) or 5_000
        )
    sampled = None
    sampled_spec = getattr(args, "sampled", None)
    if sampled_spec is not None:
        from repro.checkpoint.sampled import SampledConfig

        sampled = SampledConfig.parse(sampled_spec)
    return SweepRunner(
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        sampled=sampled,
        workers=args.workers,
        cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        use_cache=not args.no_cache,
        progress=None if args.quiet else stderr_progress,
        check=getattr(args, "check", "off"),
        retry=retry,
        keep_going=getattr(args, "keep_going", False),
        chaos=chaos,
        telemetry=telemetry,
        telemetry_dir=getattr(args, "telemetry_dir", None),
        retain_failed_telemetry=getattr(args, "retain_failed_telemetry", False),
    )


def _cmd_experiment(args) -> int:
    from repro.analysis import experiments
    from repro.analysis.scaling import SCALES

    scale = SCALES[args.scale]
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    try:
        sweep = make_sweep_runner(args)
    except ValueError as exc:
        # e.g. --checkpoint-dir/--sampled combined with --check/--telemetry,
        # or a malformed --sampled spec.
        print(str(exc), file=sys.stderr)
        return 2
    runners = {
        "fig6": lambda: "\n\n".join(
            r.to_text()
            for _k, r in sorted(
                experiments.run_figure6(
                    scale, benchmarks=benchmarks, runner=sweep
                ).items()
            )
        ),
        "fig7": lambda: experiments.run_figure7(scale, runner=sweep).to_text(),
        "fig8": lambda: experiments.run_figure8(scale, runner=sweep).to_text(),
        "table3": lambda: experiments.run_table3(scale, runner=sweep).to_text(),
        "table6": lambda: experiments.run_table6(scale, runner=sweep).to_text(),
        "table7": lambda: experiments.run_table7(scale, runner=sweep).to_text(),
        "case-study": lambda: experiments.run_case_study(
            scale, runner=sweep).to_text(),
        "replacement": lambda: experiments.run_dbi_replacement_study(
            scale, runner=sweep).to_text(),
        "drrip": lambda: experiments.run_drrip_study(
            scale, runner=sweep).to_text(),
        "dramcache": lambda: experiments.run_dramcache(
            scale, benchmarks=benchmarks, runner=sweep).to_text(),
    }
    if args.name not in runners:
        print(f"unknown experiment {args.name!r}; choose from {sorted(runners)}",
              file=sys.stderr)
        return 2
    try:
        print(runners[args.name]())
    finally:
        sweep.close()
        if sweep.failures:
            manifest = sweep.write_failure_manifest()
            print(
                f"{sweep.jobs_failed}/{sweep.jobs_submitted} jobs failed; "
                f"manifest written to {manifest}",
                file=sys.stderr,
            )
    if not args.quiet:
        print(sweep.summary(), file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    """``repro campaign {plan,run,status}``: crash-consistent sweeps."""
    from repro.campaign import (
        Campaign,
        CampaignConfig,
        CampaignError,
        campaign_status,
        render_status,
    )

    if args.subcommand == "status":
        try:
            print(render_status(campaign_status(args.dir)))
        except (CampaignError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0

    def build_config():
        from repro.workloads.spec import profile_names

        benchmarks = (
            tuple(b.strip() for b in args.benchmarks.split(","))
            if args.benchmarks
            else ()
        )
        mechanisms = None
        if args.mechanisms:
            mechanisms = tuple(m.strip() for m in args.mechanisms.split(","))
        core_counts = (
            tuple(int(c) for c in args.cores.split(","))
            if args.cores
            else None
        )
        sensitivity = (
            tuple(int(d) for d in args.sensitivity.split(","))
            if args.sensitivity
            else ()
        )
        sens_benchmarks = (
            tuple(b.strip() for b in args.sensitivity_benchmarks.split(","))
            if args.sensitivity_benchmarks
            else ()
        )
        ingested = ()
        if args.ingest:
            from repro.sim.ingest import load_registry

            registry = load_registry(args.ingest_dir)["traces"]
            names = tuple(n.strip() for n in args.ingest.split(","))
            missing = [n for n in names if n not in registry]
            if missing:
                raise ValueError(
                    f"traces not registered in {args.ingest_dir}: "
                    f"{', '.join(missing)} (run 'repro ingest' first)"
                )
            ingested = tuple((n, registry[n]["sha256"]) for n in names)

        if args.tier:
            from repro.campaign.tiers import tier_config

            overrides = dict(
                benchmarks=benchmarks,
                telemetry=args.telemetry,
                epoch_cycles=args.epoch_cycles,
                checkpoint=args.checkpoint,
                workers=0 if args.workers is None else args.workers,
                ingested=ingested,
                ingest_dir=args.ingest_dir if ingested else None,
            )
            if args.scale:
                overrides["scale"] = args.scale
            if mechanisms is not None:
                overrides["mechanisms"] = mechanisms
            if core_counts is not None:
                overrides["core_counts"] = core_counts
            if args.refs is not None:
                overrides["refs"] = args.refs
            if args.shards is not None:
                overrides["shards"] = args.shards
            if sensitivity:
                overrides["sensitivity"] = sensitivity
            if sens_benchmarks:
                overrides["sensitivity_benchmarks"] = sens_benchmarks
            return tier_config(args.tier, **overrides)

        kwargs = dict(
            scale=args.scale or "quick",
            benchmarks=benchmarks or tuple(profile_names()),
            core_counts=core_counts or (1,),
            refs=args.refs,
            telemetry=args.telemetry,
            epoch_cycles=args.epoch_cycles,
            checkpoint=args.checkpoint,
            workers=0 if args.workers is None else args.workers,
            full_width=args.full_width,
            shards=args.shards or 0,
            sensitivity=sensitivity,
            sensitivity_benchmarks=sens_benchmarks,
            ingested=ingested,
            ingest_dir=args.ingest_dir if ingested else None,
        )
        if mechanisms is not None:
            kwargs["mechanisms"] = mechanisms
        return CampaignConfig(**kwargs)

    import os as _os

    journal_exists = _os.path.exists(_os.path.join(args.dir, "journal.jsonl"))
    try:
        chaos = chaos_from_env() if args.subcommand == "run" else None
        if journal_exists:
            campaign = Campaign.open(args.dir)
        else:
            if args.resume:
                print(
                    f"{args.dir}: nothing to resume (no journal)",
                    file=sys.stderr,
                )
                return 2
            campaign = Campaign.create(args.dir, build_config())
    except (CampaignError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    with campaign:
        if campaign.recovered_torn:
            print(
                f"recovered torn journal tail -> {campaign.recovered_torn}",
                file=sys.stderr,
            )
        if args.subcommand == "plan":
            from repro.analysis.report import format_table

            rows = [
                [c.cell_id, c.category, c.mechanism, c.workload, c.num_cores]
                for c in campaign.cells
            ]
            tier = campaign.config.tier
            print(
                format_table(
                    ["cell", "kind", "mechanism", "workload", "cores"],
                    rows,
                    title=f"campaign plan: {len(rows)} cells "
                          f"({campaign.config.scale} scale"
                          + (f", {tier} tier)" if tier else ")"),
                )
            )
            return 0
        outcome = campaign.run(
            workers=args.workers,
            progress=None if args.quiet else _campaign_progress,
            chaos=chaos,
            max_attempts=args.max_attempts or 3,
            job_timeout=args.job_timeout,
        )
    if outcome.status == "complete":
        report = _os.path.join(args.dir, "report.txt")
        with open(report) as handle:
            print(handle.read(), end="")
        if not args.quiet and outcome.sweep_summary:
            print(outcome.sweep_summary, file=sys.stderr)
    elif outcome.status == "drained":
        print(
            f"campaign drained on signal {outcome.signal}: "
            f"{outcome.cells_done}/{outcome.cells_total} cells done, "
            f"{len(outcome.pending)} pending; resume with "
            f"'repro campaign run --dir {args.dir}'",
            file=sys.stderr,
        )
    else:
        print(
            f"campaign failed: {outcome.cells_failed} cell(s) exhausted "
            f"retries; see {_os.path.join(args.dir, 'manifest.json')}",
            file=sys.stderr,
        )
    return outcome.exit_code


def _campaign_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _cmd_ingest(args) -> int:
    """``repro ingest``: external traces -> registered campaign workloads."""
    from repro.sim.ingest import (
        DEFAULT_GAP_SCALE,
        DEFAULT_MAX_GAP,
        ingest_trace,
        load_registry,
    )

    if args.list_traces:
        try:
            registry = load_registry(args.registry)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        from repro.analysis.report import format_table

        rows = [
            [name, entry["records"], entry["source_format"],
             entry["sha256"][:12], entry["source"]]
            for name, entry in sorted(registry["traces"].items())
        ]
        print(
            format_table(
                ["trace", "records", "format", "sha256", "source"],
                rows,
                title=f"trace registry: {args.registry}",
            )
        )
        return 0

    if not args.sources:
        print("nothing to ingest (pass FILE... or --list)", file=sys.stderr)
        return 2
    if args.name is not None and len(args.sources) != 1:
        print("--name needs exactly one source file", file=sys.stderr)
        return 2
    for source in args.sources:
        try:
            entry = ingest_trace(
                source,
                args.registry,
                name=args.name,
                fmt=args.fmt,
                block_bytes=args.block_bytes,
                gap_scale=args.gap_scale or DEFAULT_GAP_SCALE,
                max_gap=args.max_gap or DEFAULT_MAX_GAP,
            )
        except (OSError, ValueError) as exc:
            print(f"ingest failed: {exc}", file=sys.stderr)
            return 2
        name = args.name or entry["file"].rsplit(".", 1)[0]
        print(
            f"registered {name}: {entry['records']} records "
            f"({entry['source_format']}) sha256 {entry['sha256'][:12]}"
        )
    return 0


def _cmd_reliability(args) -> int:
    from fractions import Fraction

    from repro.analysis.experiments import run_reliability
    from repro.analysis.scaling import SCALES

    scale = SCALES[args.scale]
    mechanisms = (
        [m.strip() for m in args.mechanisms.split(",")]
        if args.mechanisms
        else ("baseline", "dbi", "dbi+awb+clb")
    )
    try:
        alphas = (
            [Fraction(a.strip()) for a in args.alphas.split(",")]
            if args.alphas
            else (Fraction(1, 4), Fraction(1, 2))
        )
        result = run_reliability(
            scale,
            benchmark=args.benchmark,
            mechanisms=mechanisms,
            alphas=alphas,
            faults=args.faults,
            interval=args.interval,
            seed=args.seed,
            double_bit_fraction=args.double_bit_fraction,
            refs=args.refs,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.to_text())
    violations = sum(
        counts["protection_violations"] for counts in result.raw.values()
    )
    if violations:
        print(
            f"{violations} protection-invariant violations detected",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_profile(args) -> int:
    from repro.sim.profiler import profile_system
    from repro.sim.system import System

    try:
        trace, config = _trace_and_config(args)
        telemetry = None
        if args.telemetry:
            from repro.telemetry.sampler import TelemetryConfig

            telemetry = TelemetryConfig(epoch_cycles=args.epoch_cycles)
        system = System(config, [trace], check=args.check, telemetry=telemetry)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    profile = profile_system(system)
    events = profile.result.events_processed
    wall = profile.wall_seconds
    if args.json:
        import json

        payload = {
            "benchmark": args.benchmark,
            "mechanism": args.mechanism,
            "scale": args.scale,
            "dram_cache": args.dram_cache,
            "check": args.check,
            "telemetry": args.epoch_cycles if args.telemetry else None,
            "events_processed": events,
            "events_per_second": events / wall,
        }
        payload.update(profile.to_dict())
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"benchmark {args.benchmark}  mechanism {args.mechanism}  "
            f"scale {args.scale}  dram-cache {args.dram_cache or 'none'}  "
            f"check {args.check}  telemetry "
            + (f"{args.epoch_cycles}-cycle epochs" if args.telemetry else "off")
        )
        print(
            f"{events} events in {wall:.3f}s profiled "
            f"({events / wall:,.0f} events/s under cProfile)"
        )
        print()
        print(profile.to_text())
    return 0


def _cmd_timeline(args) -> int:
    from repro.telemetry.timeline import DEFAULT_KEYS, render_timeline

    if args.input:
        from repro.telemetry.sampler import read_jsonl

        header, records = read_jsonl(args.input)
        parts = [
            f"{key}={header[key]}"
            for key in ("benchmark", "mechanism", "label", "traces")
            if key in header
        ]
        title = f"telemetry from {args.input}" + (
            f" ({', '.join(parts)})" if parts else ""
        )
    else:
        if not args.benchmark or not args.mechanism:
            print(
                "timeline needs either --input FILE or a benchmark and "
                "a mechanism to run",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.scaling import SCALES
        from repro.sim.system import System
        from repro.telemetry.sampler import TelemetryConfig

        scale = SCALES[args.scale]
        trace = scale.benchmark_trace(args.benchmark, refs=args.refs)
        system = System(
            scale.system_config(args.mechanism),
            [trace],
            telemetry=TelemetryConfig(epoch_cycles=args.epoch_cycles),
        )
        system.run()
        records = list(system.telemetry.records)
        title = (
            f"{args.benchmark} under {args.mechanism} "
            f"({args.scale} scale, {args.epoch_cycles}-cycle epochs)"
        )
    keys = args.stat or list(DEFAULT_KEYS)
    print(
        render_timeline(
            records,
            keys=keys,
            width=args.width,
            max_rows=args.max_rows,
            title=title,
        )
    )
    return 0


def _cmd_check_diff(args) -> int:
    from repro.analysis.scaling import SCALES
    from repro.check import run_check_diff

    scale = SCALES[args.scale]
    benchmarks = (args.benchmarks or "lbm").split(",")
    traces = [
        scale.benchmark_trace(name.strip(), refs=args.refs)
        for name in benchmarks
    ]
    # None = every mechanism family; oracle v2's drain-schedule replay makes
    # all of them eligible with or without --dram-cache.
    mechanisms = (
        [m.strip() for m in args.mechanisms.split(",")]
        if args.mechanisms
        else None
    )
    try:
        report = run_check_diff(
            traces, mechanisms=mechanisms, dram_cache=args.dram_cache
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.to_text())
    return 0 if report.ok else 1


def _cmd_conformance(args) -> int:
    from repro.check.conformance import (
        CampaignConfig,
        replay_finding,
        run_campaign,
    )

    if args.replay:
        outcome = replay_finding(args.replay)
        print(outcome.spec.describe())
        if outcome.ok:
            print("replay: clean (the finding no longer reproduces)")
            return 0
        for failure in outcome.failures:
            print(f"  {failure}")
        return 1

    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        shrink=not args.no_shrink,
    )
    if args.out:
        config.out_dir = args.out
    result = run_campaign(config)
    print(result.to_text())
    return 0 if result.ok else 1


def _cmd_dramcache(args) -> int:
    from repro.analysis import experiments
    from repro.analysis.scaling import SCALES

    scale = SCALES[args.scale]
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    try:
        sweep = make_sweep_runner(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = experiments.run_dramcache(
            scale,
            benchmarks=benchmarks,
            mechanism=args.mechanism,
            runner=sweep,
        )
        print(result.to_text())
    finally:
        sweep.close()
    if not args.quiet:
        print(sweep.summary(), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    from repro.analysis.scaling import SCALES

    scales = sorted(SCALES)
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmarks/mechanisms/scales")

    run_parser = sub.add_parser("run", help="simulate one benchmark")
    run_parser.add_argument("benchmark")
    run_parser.add_argument("mechanism")
    run_parser.add_argument("--scale", default="quick", choices=scales)
    run_parser.add_argument("--refs", type=int, default=None)
    run_parser.add_argument(
        "--check", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking level (default: off)",
    )
    run_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream per-epoch telemetry to this JSONL file and print the "
             "measured warmup boundary (observational: metrics unchanged)",
    )
    run_parser.add_argument(
        "--epoch-cycles", type=int, default=5_000, metavar="N",
        help="telemetry epoch length in cycles (default: 5000)",
    )
    run_parser.add_argument(
        "--dram-cache", choices=("tag", "dbi"), default=None,
        help="insert a die-stacked DRAM-cache level between the LLC and "
             "off-chip DRAM, with this dirty-tracking backend",
    )
    run_parser.add_argument(
        "--sampled", nargs="?", const="default", default=None, metavar="SPEC",
        help="SMARTS-style sampled run: detailed windows with functional "
             "fast-forward between them, reporting per-metric 95%% "
             "confidence intervals. SPEC tunes the schedule, e.g. "
             "'windows=8,window_cycles=2000,warmup_cycles=2000' (defaults "
             "shown); incompatible with --check/--telemetry",
    )

    exp_parser = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp_parser.add_argument("name")
    exp_parser.add_argument("--scale", default="quick", choices=scales)
    exp_parser.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes (default: cpu_count - 1; "
             "0/1 runs jobs inline)",
    )
    exp_parser.add_argument(
        "--cache-dir", default=None,
        help="sweep result cache directory (default: results/sweep_cache)",
    )
    exp_parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk sweep cache",
    )
    exp_parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark subset (fig6 and dramcache only)",
    )
    exp_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    exp_parser.add_argument(
        "--check", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking level for every job (default: off)",
    )
    exp_parser.add_argument(
        "--keep-going", action="store_true",
        help="render partial artifacts when jobs exhaust their retries "
             "(failed cells become n/a; results/sweep_failures.json lists "
             "the tracebacks) instead of aborting on the first failure",
    )
    exp_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout; a job exceeding it counts as a "
             "hung worker and is retried (default: no timeout)",
    )
    exp_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="total attempts per job for retryable failures — worker "
             "crashes and timeouts (default: 3); deterministic simulation "
             "errors never retry",
    )
    exp_parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fault-injection spec for testing the retry machinery, e.g. "
             "'seed=7,crash=0.3,hang=0.1,corrupt=0.2' (default: the "
             "REPRO_CHAOS environment variable; 'off' disables)",
    )
    exp_parser.add_argument(
        "--telemetry", action="store_true",
        help="attach the epoch sampler to every simulated job, writing one "
             "<key>.telemetry.jsonl per job (cache hits skip simulating and "
             "produce no artifact)",
    )
    exp_parser.add_argument(
        "--epoch-cycles", type=int, default=5_000, metavar="N",
        help="telemetry epoch length in cycles (default: 5000)",
    )
    exp_parser.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="telemetry artifact directory (default: the sweep cache dir)",
    )
    exp_parser.add_argument(
        "--retain-failed-telemetry", action="store_true",
        help="keep the .partial epoch stream of terminally failed jobs as "
             "a forensic trail instead of deleting it",
    )
    exp_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="enable fork-from-warm sweeps: warm each (benchmark, config) "
             "group once, snapshot into DIR, and fork every per-mechanism "
             "cell from the shared warm image (documented approximation of "
             "cold runs; cached under distinct keys; incompatible with "
             "--check/--telemetry)",
    )
    exp_parser.add_argument(
        "--sampled", nargs="?", const="default", default=None, metavar="SPEC",
        help="run every cell in SMARTS-style sampled mode (detailed windows "
             "+ functional fast-forward); composes with --checkpoint-dir "
             "for the fastest sweeps. SPEC e.g. "
             "'windows=8,window_cycles=2000' (incompatible with "
             "--check/--telemetry)",
    )

    rel_parser = sub.add_parser(
        "reliability",
        help="soft-error study: heterogeneous-ECC data loss, DBI vs untracked",
    )
    rel_parser.add_argument("--scale", default="quick", choices=scales)
    rel_parser.add_argument(
        "--benchmark", default="lbm",
        help="benchmark trace to run under injection (default: lbm)",
    )
    rel_parser.add_argument(
        "--mechanisms", default=None,
        help="comma-separated mechanisms (default: baseline,dbi,dbi+awb+clb)",
    )
    rel_parser.add_argument(
        "--alphas", default=None,
        help="comma-separated DBI α fractions, e.g. '1/4,1/2' (default)",
    )
    rel_parser.add_argument(
        "--faults", type=int, default=200,
        help="soft errors to inject per run (default: 200)",
    )
    rel_parser.add_argument(
        "--interval", type=int, default=500,
        help="cycles between injections (default: 500)",
    )
    rel_parser.add_argument(
        "--seed", type=lambda v: int(v, 0), default=0x5EED,
        help="injection seed (default: 0x5EED)",
    )
    rel_parser.add_argument(
        "--double-bit-fraction", type=float, default=0.0,
        help="fraction of upsets that flip two bits (default: 0)",
    )
    rel_parser.add_argument(
        "--refs", type=int, default=None,
        help="memory references per trace (default: scale profile's)",
    )

    prof_parser = sub.add_parser(
        "profile",
        help="exclusive time per layer of one simulation (cProfile)",
    )
    prof_parser.add_argument("benchmark")
    prof_parser.add_argument("mechanism")
    prof_parser.add_argument("--scale", default="quick", choices=scales)
    prof_parser.add_argument(
        "--refs", type=int, default=None,
        help="memory references in the trace (default: scale profile's)",
    )
    prof_parser.add_argument(
        "--dram-cache", choices=("tag", "dbi"), default=None,
        help="profile with a die-stacked DRAM-cache level between the LLC "
             "and off-chip DRAM, with this dirty-tracking backend",
    )
    prof_parser.add_argument(
        "--check", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking level (default: off); check "
             "sweeps are charged to the 'check' layer",
    )
    prof_parser.add_argument(
        "--telemetry", action="store_true",
        help="attach the in-memory epoch sampler; its sampling is charged "
             "to the 'telemetry' layer",
    )
    prof_parser.add_argument(
        "--epoch-cycles", type=int, default=5_000, metavar="N",
        help="telemetry epoch length in cycles (default: 5000)",
    )
    prof_parser.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )

    tl_parser = sub.add_parser(
        "timeline",
        help="per-epoch telemetry table and sparklines for one run",
    )
    tl_parser.add_argument(
        "benchmark", nargs="?", default=None,
        help="benchmark to simulate (omit when using --input)",
    )
    tl_parser.add_argument(
        "mechanism", nargs="?", default=None,
        help="mechanism to simulate (omit when using --input)",
    )
    tl_parser.add_argument(
        "--input", default=None, metavar="PATH",
        help="render a saved telemetry JSONL stream instead of simulating "
             "(e.g. an artifact from 'run --telemetry' or "
             "'experiment --telemetry')",
    )
    tl_parser.add_argument("--scale", default="quick", choices=scales)
    tl_parser.add_argument(
        "--refs", type=int, default=None,
        help="memory references in the trace (default: scale profile's)",
    )
    tl_parser.add_argument(
        "--epoch-cycles", type=int, default=2_000, metavar="N",
        help="epoch length in cycles (default: 2000 — finer than run's "
             "5000 because this view is about within-run structure)",
    )
    tl_parser.add_argument(
        "--stat", action="append", default=None, metavar="KEY",
        help="stat key to plot (repeatable; counter deltas like "
             "'mech.read_hits', gauges like 'mech.dbi_occupancy', or "
             "record fields like 'ipc'; default: ipc and "
             "dram.write_buffer_depth)",
    )
    tl_parser.add_argument(
        "--width", type=int, default=60,
        help="sparkline width in columns (default: 60)",
    )
    tl_parser.add_argument(
        "--max-rows", type=int, default=40,
        help="table rows before subsampling every Nth epoch (default: 40)",
    )

    diff_parser = sub.add_parser(
        "check-diff",
        help="validate mechanisms against the untimed reference model",
    )
    diff_parser.add_argument("--scale", default="quick", choices=scales)
    diff_parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark traces to replay, one per core "
             "(default: lbm)",
    )
    diff_parser.add_argument(
        "--mechanisms", default=None,
        help="comma-separated mechanism subset (default: all)",
    )
    diff_parser.add_argument(
        "--refs", type=int, default=3000,
        help="memory references per trace (default: 3000)",
    )
    diff_parser.add_argument(
        "--dram-cache", choices=("tag", "dbi"), default=None,
        help="attach a die-stacked DRAM-cache level with this dirty backend "
             "and also prove the level equivalent to the untimed reference "
             "(every mechanism family is eligible: the oracle replays the "
             "recorded drain schedule)",
    )

    conf_parser = sub.add_parser(
        "conformance",
        help="coverage-guided random differential + invariant campaign",
    )
    conf_parser.add_argument(
        "--trials", type=int, default=24,
        help="trial budget for the campaign (default: 24)",
    )
    conf_parser.add_argument(
        "--seed", type=lambda v: int(v, 0), default=0xC0F0,
        help="campaign seed; same seed = same trials and coverage map "
             "(default: 0xC0F0)",
    )
    conf_parser.add_argument(
        "--out", default=None,
        help="artifact directory for coverage.json and finding repro "
             "scripts (default: results/conformance)",
    )
    conf_parser.add_argument(
        "--no-shrink", action="store_true",
        help="write failing trials unshrunk (faster triage turnaround)",
    )
    conf_parser.add_argument(
        "--replay", default=None, metavar="FINDING.json",
        help="re-run one written finding instead of a campaign",
    )

    dc_parser = sub.add_parser(
        "dramcache",
        help="DRAM-cache dirty-tracking trade-off: tag dirty bits vs DBI "
             "with aggressive whole-row writeback",
    )
    dc_parser.add_argument("--scale", default="quick", choices=scales)
    dc_parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark subset (default: lbm,milc,mcf)",
    )
    dc_parser.add_argument(
        "--mechanism", default="baseline",
        help="LLC mechanism above the level (default: baseline)",
    )
    dc_parser.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes (default: cpu_count - 1)",
    )
    dc_parser.add_argument(
        "--cache-dir", default=None,
        help="sweep result cache directory (default: results/sweep_cache)",
    )
    dc_parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk sweep cache",
    )
    dc_parser.add_argument(
        "--check", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking level for every job (default: off)",
    )
    dc_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines on stderr",
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help="crash-consistent sweep campaigns: plan, run/resume, status",
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="subcommand", required=True
    )
    for name, blurb in (
        ("plan", "create the journal and print the cell grid"),
        ("run", "run (or resume) a campaign to completion"),
        ("status", "read-only progress and health report"),
    ):
        cp = campaign_sub.add_parser(name, help=blurb)
        cp.add_argument(
            "--dir", default="results/campaign", metavar="DIR",
            help="campaign directory (journal, cache, artifacts; "
                 "default: results/campaign)",
        )
        if name == "status":
            continue
        cp.add_argument(
            "--tier", default=None, choices=("quick", "nightly", "full"),
            help="campaign preset (scale, workloads, shards, sensitivity); "
                 "explicit flags override preset fields",
        )
        cp.add_argument("--scale", default=None, choices=scales)
        cp.add_argument(
            "--benchmarks", default=None,
            help="comma-separated benchmarks for single-core cells "
                 "(default: all)",
        )
        cp.add_argument(
            "--mechanisms", default=None,
            help="comma-separated mechanisms (default: the Figure 7 lineup)",
        )
        cp.add_argument(
            "--cores", default=None,
            help="comma-separated core counts, e.g. '1,2,4' (default: 1; "
                 "multi-core counts use the scale profile's mixes)",
        )
        cp.add_argument(
            "--refs", type=int, default=None,
            help="memory references per trace (default: scale profile's)",
        )
        cp.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: 0 = inline)",
        )
        cp.add_argument(
            "--telemetry", action="store_true",
            help="attach the epoch sampler to every cell "
                 "(artifacts in DIR/telemetry)",
        )
        cp.add_argument(
            "--epoch-cycles", type=int, default=5_000, metavar="N",
        )
        cp.add_argument(
            "--checkpoint", action="store_true",
            help="fork-from-warm cells (shared warm images in "
                 "DIR/checkpoints; incompatible with --telemetry)",
        )
        cp.add_argument(
            "--full-width", action="store_true",
            help="the paper's complete 102/259/120 mix tables plus the "
                 "alone-IPC normalizer cells (Figure 7/8 surfaces)",
        )
        cp.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="split each long run into N stitched epoch segments "
                 "(distributable across workers; default: whole runs)",
        )
        cp.add_argument(
            "--sensitivity", default=None, metavar="DIVISORS",
            help="comma-separated stacked-bandwidth divisors for the "
                 "dramcache sensitivity sweep, e.g. '1,2,4'",
        )
        cp.add_argument(
            "--sensitivity-benchmarks", default=None, metavar="NAMES",
            help="benchmarks the sensitivity sweep averages over",
        )
        cp.add_argument(
            "--ingest", default=None, metavar="NAMES",
            help="comma-separated registered trace names to add as "
                 "campaign cells (see 'repro ingest')",
        )
        cp.add_argument(
            "--ingest-dir", default="results/traces", metavar="DIR",
            help="trace registry directory (default: results/traces)",
        )
        cp.add_argument(
            "--resume", action="store_true",
            help="require an existing journal (refuse to plan fresh)",
        )
        cp.add_argument(
            "--max-attempts", type=int, default=None, metavar="N",
        )
        cp.add_argument(
            "--job-timeout", type=float, default=None, metavar="SECONDS",
        )
        cp.add_argument("--quiet", action="store_true")

    ingest_parser = sub.add_parser(
        "ingest",
        help="validate, convert and register external memory traces",
    )
    ingest_parser.add_argument(
        "sources", nargs="*", metavar="FILE",
        help="gem5-style text traces or DBITRACE containers",
    )
    ingest_parser.add_argument(
        "--registry", default="results/traces", metavar="DIR",
        help="trace registry directory (default: results/traces)",
    )
    ingest_parser.add_argument(
        "--name", default=None,
        help="registered name (single source only; default: file stem)",
    )
    ingest_parser.add_argument(
        "--format", dest="fmt", default="auto",
        choices=("auto", "gem5", "dbitrace"),
    )
    ingest_parser.add_argument("--block-bytes", type=int, default=64)
    ingest_parser.add_argument(
        "--gap-scale", type=int, default=None, metavar="TICKS",
        help="source ticks per simulated gap cycle (default: 1000)",
    )
    ingest_parser.add_argument(
        "--max-gap", type=int, default=None, metavar="CYCLES",
        help="clamp on one inter-reference gap (default: 10000)",
    )
    ingest_parser.add_argument(
        "--list", action="store_true", dest="list_traces",
        help="print the registry instead of ingesting",
    )

    args = parser.parse_args(argv)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check-diff":
        return _cmd_check_diff(args)
    if args.command == "conformance":
        return _cmd_conformance(args)
    if args.command == "dramcache":
        return _cmd_dramcache(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "reliability":
        return _cmd_reliability(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
