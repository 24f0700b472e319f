#!/usr/bin/env bash
# CI entry point: tier-1 test suite plus verification passes.
#
# Usage:
#   tools/ci.sh                  # run every stage, in order
#   tools/ci.sh tier1 chaos      # run only the named stages, in the order given
#   tools/ci.sh --list           # print the stage names, one per line
#
# Stages run keep-going: a failed stage is recorded and the remaining
# stages still run; the roll-up at the end lists per-stage status and
# wall-clock, is mirrored to tools/ci_times.json (written even when a
# stage fails), and the exit status is 1 if any stage failed.
#
# Stages:
#   tier1        — fast tests (slow/fuzz markers excluded by addopts) with
#                  --strict-markers.
#   coverage     — the tier-1 selection again under pytest-cov, enforcing
#                  the committed floor in tools/coverage_floor.txt
#                  (override with COV_FAIL_UNDER); skips with a notice when
#                  pytest-cov is not installed.
#   slowfuzz     — long-running integration tests and the hypothesis fuzz
#                  layer over the checked simulator.
#   differential — `repro check-diff` replays a trace through every mechanism
#                  and the untimed golden model; any architectural divergence
#                  fails the build.
#   checked      — one full timing simulation with `--check full` (invariant
#                  sweeps + writeback-conservation ledger).
#   dramcache    — the die-stacked level's differential proof: both dirty
#                  backends vs the untimed oracle. The quick trade-off sweep
#                  (DBI-backed writeback beats tag-dirty) is asserted by
#                  tests/test_paper_claims.py in the slowfuzz stage; the
#                  Section 7 dispatcher's routing on a dbi-backend level
#                  (dirty hits pinned, clean hits offloaded, the same-cycle
#                  stale read, a full-check system run) by
#                  tests/extensions/test_dram_cache.py in tier1.
#   conformance  — seeded coverage-guided campaign (`repro conformance`):
#                  random config/op-schedule trials through the differential
#                  and the invariant engine, run twice; zero findings and a
#                  byte-identical coverage map are required.
#   sweep        — two figure runners (fig6 on two benchmarks; fig8, whose
#                  4-core mixes repeat benchmarks) through the SweepRunner
#                  with 2 workers and a fresh cache, twice; the second pass
#                  must be answered from the cache, byte-identically.
#   chaos        — the same sweep under seeded worker crashes, hangs and
#                  cache corruption at p=0.3 with --keep-going; each sweep's
#                  summary must report a retry (faults fired), each sweep
#                  must retry a job in the last third of its job ids (faults
#                  fire through the whole sweep, not only its first jobs),
#                  and the recovered output must be byte-identical to the
#                  fault-free run. A fault-free rerun over the chaos cache
#                  must then quarantine a corrupt entry and reproduce the
#                  output.
#   reliability  — soft-error smoke: the heterogeneous-ECC experiment must
#                  show zero data loss for DBI-tracked domains.
#   telemetry    — epoch-sampling smoke: `repro run --telemetry` must leave
#                  a parseable JSONL artifact and `repro timeline` must
#                  render the per-epoch table end to end.
#   checkpoint   — tools/checkpoint_gate.py proves a mid-run snapshot under
#                  --check full restores byte-identically, that a corrupt
#                  warm image is quarantined to .ckpt.corrupt and rebuilt,
#                  and that a fork+sampled quick fig6 sweep beats the cold
#                  full-run sweep by >= 2.0x wall-clock (warm build included).
#   campaign     — tools/soak_gate.py SIGKILLs a campaign orchestrator at
#                  scheduled journal offsets (mid-journal-append, after a
#                  dispatch, mid-warm-image-build, after a sharded cell's
#                  image is written) plus one SIGTERM drain,
#                  resumes each from the journal, and fails unless every
#                  recovered campaign's results/report/telemetry artifacts
#                  are byte-identical to an uninterrupted reference run.
#   campaignfull — the quick-tier campaign end to end: full-width mix
#                  tables, alone-IPC normalizer cells and the sensitivity
#                  sweep, emitting the Figure 6/7/8 surfaces with CIs;
#                  then tools/soak_gate.py --tier SIGKILLs a shrunken
#                  tier campaign mid-dispatch and requires byte-identical
#                  surfaces after resume.
#   perfbench    — the repo benchmark's own checks: perfbench/tests, then one
#                  untraced pass at seed 1 of each workload (memory-bound,
#                  cache-resident, stacked-checked, campaign-slice) that
#                  fails unless its result line reports "failed": 0, i.e.
#                  every cell digest — and for campaign-slice results.json
#                  (stitched keys included) and the surfaces — matches the
#                  pins in perfbench/digests.json.
#   perf         — tools/perf_gate.py runs perfbench/run.py (memory-bound and
#                  cache-resident, seed 1, --seconds 10) on HEAD and on a
#                  pinned reference commit (same machine), and fails on a
#                  failed cell or if a workload's HEAD/reference
#                  sim_refs_per_s ratio drops >20% below the ratio pinned in
#                  BENCH_baseline.json. Ratios are hardware-independent;
#                  absolute refs/s is recorded only.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

COV_FAIL_UNDER=${COV_FAIL_UNDER:-$(cat tools/coverage_floor.txt)}
ALL_STAGES=(tier1 coverage slowfuzz differential checked dramcache
            conformance sweep chaos reliability telemetry checkpoint
            campaign campaignfull perfbench perf)

if [ "${1:-}" = "--list" ]; then
    printf '%s\n' "${ALL_STAGES[@]}"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

stage_tier1() {
    python -m pytest -x -q --strict-markers
}

stage_coverage() {
    if ! python -c "import pytest_cov" 2>/dev/null; then
        echo "ci: skip — pytest-cov not installed; install with" \
             "'pip install .[cov]' to enforce the ${COV_FAIL_UNDER}% floor"
        return 0
    fi
    python -m pytest -q --strict-markers \
        -m "not slow and not fuzz and not benchmark" \
        --cov=repro --cov-report=term-missing --cov-report=json \
        --cov-fail-under="$COV_FAIL_UNDER"
    # Floor only moves up: when coverage beats it by >1 point, the ratchet
    # rewrites tools/coverage_floor.txt for the next commit to pick up.
    python tools/coverage_ratchet.py
    echo "ci: ok (line coverage >= ${COV_FAIL_UNDER}%)"
}

stage_slowfuzz() {
    python -m pytest -x -q --strict-markers -m "slow or fuzz"
}

stage_differential() {
    python -m repro check-diff --refs 2000
}

stage_checked() {
    python -m repro run lbm dbi+awb --scale quick --refs 4000 --check full
}

stage_dramcache() {
    # Differential proof for the stacked level, both dirty backends.
    python -m repro check-diff --refs 2000 --dram-cache tag
    python -m repro check-diff --refs 2000 --dram-cache dbi
}

stage_conformance() {
    # Background-writeback mechanisms below the level: the corner oracle v2
    # unlocked must stay covered explicitly.
    python -m repro check-diff --refs 1500 --dram-cache dbi \
        --mechanisms dbi+awb,dawb,skipcache
    # Seeded campaign, twice: zero findings, byte-stable coverage map.
    python -m repro conformance --trials 24 --out "$tmp/conf-a"
    python -m repro conformance --trials 24 --out "$tmp/conf-b"
    if ! cmp -s "$tmp/conf-a/coverage.json" "$tmp/conf-b/coverage.json"; then
        echo "ci: FAIL — conformance coverage map is not byte-stable" >&2
        diff "$tmp/conf-a/coverage.json" "$tmp/conf-b/coverage.json" >&2 || true
        return 1
    fi
    keys=$(python -c "import json;print(len(json.load(open('$tmp/conf-a/coverage.json'))))")
    echo "ci: ok (24 trials, 0 findings, $keys coverage keys, map byte-stable)"
}

# The sweep artifacts into cache dir $1; further arguments go to both runs.
sweep_into() {
    local cache=$1
    shift
    python -m repro experiment fig6 --scale quick \
        --benchmarks mcf,bzip2 --workers 2 --cache-dir "$cache" "$@"
    python -m repro experiment fig8 --scale quick \
        --workers 2 --cache-dir "$cache" "$@"
}

sweep() {
    sweep_into "$tmp/cache" --quiet
}

# The `sweep:` summary lines of a sweep_into run's stderr file $1.
sweep_summaries() {
    grep '^sweep:' "$1" || true
}

# The chaos stage diffs against the fault-free sweep output; produce it here
# so `tools/ci.sh chaos` works standalone, and the sweep stage reuses it.
ensure_fault_free_sweep() {
    if [ ! -f "$tmp/cold.txt" ]; then
        sweep > "$tmp/cold.txt"
    fi
}

stage_sweep() {
    ensure_fault_free_sweep
    sweep > "$tmp/warm.txt"
    if ! cmp -s "$tmp/cold.txt" "$tmp/warm.txt"; then
        echo "ci: FAIL — warm-cache sweep output differs from cold run" >&2
        diff "$tmp/cold.txt" "$tmp/warm.txt" >&2 || true
        return 1
    fi
    entries=$(ls "$tmp/cache" | wc -l)
    echo "ci: ok (sweep cache holds $entries entries; warm rerun byte-identical)"
}

stage_chaos() {
    ensure_fault_free_sweep
    # hang_seconds must exceed --job-timeout for hangs to trigger recovery,
    # and the generous attempt budget lets every fault be retried through;
    # recovery must repair execution without touching data.
    sweep_into "$tmp/chaos-cache" \
        --keep-going --max-attempts 6 --job-timeout 10 \
        --chaos "seed=7,crash=0.3,hang=0.3,corrupt=0.3,hang_seconds=20" \
        > "$tmp/chaos.txt" 2> "$tmp/chaos.err"
    sweep_summaries "$tmp/chaos.err" | tee "$tmp/chaos-summary.txt"
    if ! cmp -s "$tmp/cold.txt" "$tmp/chaos.txt"; then
        echo "ci: FAIL — chaos sweep output differs from fault-free run" >&2
        diff "$tmp/cold.txt" "$tmp/chaos.txt" >&2 || true
        return 1
    fi
    # A recovery proof is only a proof if faults fired: both sweeps
    # (fig6, fig8) must report at least one retried attempt.
    fired=$(grep -Ec ', [1-9][0-9]* retried' "$tmp/chaos-summary.txt" || true)
    if [ "$fired" -ne 2 ]; then
        echo "ci: FAIL — $fired of 2 chaos sweeps reported a retry" >&2
        return 1
    fi
    # ...and they must keep firing to the end of each sweep: each needs a
    # retry progress line for a job in the last third of its job ids.
    python - "$tmp/chaos.err" << 'PY'
import re, sys

sweeps, retried = [], set()
for line in open(sys.argv[1]):
    match = re.match(r"\[sweep (\d+)\] .* retry \d+/", line)
    if match:
        retried.add(int(match.group(1)))
    match = re.match(r"sweep: (\d+) jobs", line)
    if match:
        total = int(match.group(1))
        sweeps.append(any(job >= total - total // 3 for job in retried))
        retried = set()
if sweeps != [True, True]:
    sys.exit(f"ci: FAIL — retry in the last third of each sweep: {sweeps}")
print("ci: ok (both chaos sweeps retried a job in their last third)")
PY
    # The torn cache entries surface on the next read: a fault-free rerun
    # must quarantine at least one and still reproduce the output.
    sweep_into "$tmp/chaos-cache" > "$tmp/rerun.txt" 2> "$tmp/rerun.err"
    sweep_summaries "$tmp/rerun.err" | tee "$tmp/rerun-summary.txt"
    if ! grep -Eq ', [1-9][0-9]* corrupt cache entries quarantined' \
        "$tmp/rerun-summary.txt"; then
        echo "ci: FAIL — rerun over the chaos cache quarantined nothing" >&2
        return 1
    fi
    if ! cmp -s "$tmp/cold.txt" "$tmp/rerun.txt"; then
        echo "ci: FAIL — rerun over the chaos cache differs from fault-free run" >&2
        diff "$tmp/cold.txt" "$tmp/rerun.txt" >&2 || true
        return 1
    fi
    echo "ci: ok (faults fired in both chaos sweeps; output and the rerun" \
         "over the chaos cache byte-identical to the fault-free run)"
}

stage_reliability() {
    python -m repro reliability --scale quick --refs 6000 \
        --mechanisms baseline,dbi --alphas 1/4 --faults 60 --interval 150 \
        | tee "$tmp/reliability.txt"
    if ! grep -q "lost 0 blocks" "$tmp/reliability.txt"; then
        echo "ci: FAIL — DBI-tracked domain reported soft-error data loss" >&2
        return 1
    fi
    echo "ci: ok (DBI-tracked domains lost no data)"
}

stage_telemetry() {
    # The sampler is observational, so correctness is covered by the test
    # suite (byte-identical results); this stage guards the user-facing
    # plumbing: artifact on disk, loadable stream, rendered table.
    python -m repro run lbm dbi+awb --scale quick --refs 4000 \
        --telemetry "$tmp/telemetry.jsonl" --epoch-cycles 2000 \
        > "$tmp/telemetry-run.txt"
    if ! grep -q "measured warmup" "$tmp/telemetry-run.txt"; then
        echo "ci: FAIL — run --telemetry printed no warmup report" >&2
        return 1
    fi
    [ -s "$tmp/telemetry.jsonl" ] || {
        echo "ci: FAIL — telemetry JSONL artifact missing or empty" >&2
        return 1
    }
    python -m repro timeline --input "$tmp/telemetry.jsonl" \
        --stat ipc --stat mech.dbi_occupancy > "$tmp/timeline.txt"
    if ! grep -q "epoch  *cycle  *cycles" "$tmp/timeline.txt"; then
        echo "ci: FAIL — timeline rendered no epoch table" >&2
        cat "$tmp/timeline.txt" >&2
        return 1
    fi
    epochs=$(grep -c '"epoch"' "$tmp/telemetry.jsonl")
    echo "ci: ok (streamed $epochs epochs; timeline rendered from artifact)"
}

stage_checkpoint() {
    python tools/checkpoint_gate.py
}

stage_campaign() {
    python tools/soak_gate.py
}

stage_campaignfull() {
    python -m repro campaign run --tier quick \
        --dir "$tmp/campaignfull" --workers 2 --quiet
    for artifact in report.txt results.json surfaces/surfaces.json \
        surfaces/fig6a.txt surfaces/fig6b.txt surfaces/fig6c.txt \
        surfaces/fig6d.txt surfaces/fig6e.txt surfaces/fig7.txt \
        surfaces/fig8.txt surfaces/sensitivity.txt; do
        if [ ! -s "$tmp/campaignfull/$artifact" ]; then
            echo "ci: FAIL — campaign artifact $artifact missing or empty" >&2
            return 1
        fi
    done
    python tools/soak_gate.py --tier
    echo "ci: ok (quick-tier campaign emitted every surface; tier kill" \
         "points recovered byte-identically)"
}

stage_perfbench() {
    python -m pytest -q perfbench/tests
    for workload in memory-bound cache-resident stacked-checked campaign-slice; do
        python perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 1 --trace 0 > "$tmp/perfbench.txt"
        python - "$tmp/perfbench.txt" "$workload" << 'PY'
import json, sys

line = open(sys.argv[1]).read().splitlines()[-1]
workload = sys.argv[2]
result = json.loads(line)
if result["failed"] != 0:
    sys.exit(f"ci: FAIL — {workload} digests: {line}")
print(f"ci: ok ({workload}: {result['attempted']} digests match the pins)")
PY
    done
}

stage_perf() {
    python tools/perf_gate.py
}

if [ "$#" -gt 0 ]; then
    stages=("$@")
else
    stages=("${ALL_STAGES[@]}")
fi

for stage in "${stages[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $stage "*) ;;
        *)
            echo "ci: unknown stage '$stage' (choose from: ${ALL_STAGES[*]})" >&2
            exit 2
            ;;
    esac
done

# Child mode: run exactly one stage under the top-level `set -e`, so a
# failing command anywhere inside the stage function fails the process.
# The parent loop re-invokes this script per stage — calling the function
# from inside an `if` would suppress errexit within it (bash semantics),
# letting multi-command stages "pass" after an early command failed.
if [ "${CI_STAGE_CHILD:-0}" = 1 ]; then
    "stage_$1"
    exit 0
fi

results="$tmp/stage-results.txt"
: > "$results"
overall=0
for stage in "${stages[@]}"; do
    echo "== stage: $stage =="
    stage_start=$SECONDS
    if CI_STAGE_CHILD=1 "$BASH" "$0" "$stage"; then
        status=pass
        echo "ci: stage $stage passed in $((SECONDS - stage_start))s"
    else
        status=fail
        overall=1
        echo "ci: stage $stage FAILED after $((SECONDS - stage_start))s" >&2
    fi
    printf '%s %s %s\n' "$stage" "$status" "$((SECONDS - stage_start))" \
        >> "$results"
done

# Timing summary: mirrored to tools/ci_times.json (gitignored) so CI can
# upload it; written even when stages failed.
python - "$results" tools/ci_times.json << 'PY'
import json, sys

stages = []
with open(sys.argv[1]) as handle:
    for line in handle:
        name, status, seconds = line.split()
        stages.append(
            {"name": name, "status": status, "seconds": int(seconds)}
        )
payload = {
    "format": 1,
    "stages": stages,
    "total_seconds": sum(s["seconds"] for s in stages),
}
with open(sys.argv[2], "w") as handle:
    json.dump(payload, handle, indent=2)
    handle.write("\n")
PY

echo "== ci roll-up =="
failed=()
while read -r name status seconds; do
    printf 'ci: %-12s %-4s %4ss\n' "$name" "$status" "$seconds"
    if [ "$status" = fail ]; then
        failed+=("$name")
    fi
done < "$results"
if [ "$overall" -ne 0 ]; then
    echo "ci: FAILED stages: ${failed[*]} (timings in tools/ci_times.json)" >&2
    exit 1
fi
echo "ci: all requested stages passed (${stages[*]})"
