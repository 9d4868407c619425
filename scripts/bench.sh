#!/usr/bin/env sh
# bench.sh — run the solver/scenario/sweep benchmark suite and emit a
# machine-readable snapshot (default bench-snapshot.json, untracked) so
# the performance trajectory of the repo can be tracked in-tree, or —
# with --check — rerun the benchmarks pinned in the latest committed
# snapshot and fail when any ns/op, bytes/op or allocs/op regressed
# past the tolerance (the CI bench-gate job), or — with --profile —
# capture cpu/mem pprof profiles of the sweep benchmarks for offline
# analysis.
#
# Usage:
#   scripts/bench.sh [output.json]          # snapshot mode (default
#                                           # bench-snapshot.json; name
#                                           # a new BENCH_PR<n>.json to
#                                           # commit a new gate baseline)
#   scripts/bench.sh --check [base.json]    # regression gate against the
#                                           # latest BENCH_*.json (or base)
#   scripts/bench.sh --profile [outdir]     # pprof profiles (default
#                                           # bench-profiles/)
#   BENCHTIME=2s scripts/bench.sh           # longer sampling
#   BENCH='TransientStep' scripts/bench.sh  # subset (snapshot mode)
#   BENCH_GATE_TOLERANCE=1.5 scripts/bench.sh --check   # looser gate
set -eu
cd "$(dirname "$0")/.."

mode=snapshot
case "${1:-}" in
--check)
    mode=check
    shift
    ;;
--profile)
    mode=profile
    shift
    ;;
esac

benchtime="${BENCHTIME:-1s}"
tolerance="${BENCH_GATE_TOLERANCE:-1.35}"

# emit_json parses `go test -bench` output on stdin into the snapshot
# format: one benchmark per line, so the gate can re-parse it with awk
# alone (no jq dependency). Repeated samples of one benchmark (-count N)
# collapse to the fastest — the noise-robust statistic the gate compares.
# The header records the machine's CPU count, since the parallel
# benchmarks' times depend on it.
emit_json() {
    awk -v benchtime="$1" -v nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)" '
BEGIN { n = 0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    line = sprintf("  {\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s", name, $2, $3)
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")      line = line sprintf(",\"bytes_per_op\":%s", $i)
        if ($(i+1) == "allocs/op") line = line sprintf(",\"allocs_per_op\":%s", $i)
    }
    if (name in best) {
        if ($3 + 0 < best[name]) { best[name] = $3 + 0; lines[slot[name]] = line "}" }
        next
    }
    best[name] = $3 + 0
    slot[name] = n
    lines[n++] = line "}"
}
END {
    printf("{\n  \"goos\":\"%s\",\"goarch\":\"%s\",\"cpu\":\"%s\",\"nproc\":%s,\"benchtime\":\"%s\",\n", goos, goarch, cpu, nproc, benchtime)
    printf("  \"benchmarks\":[\n")
    for (i = 0; i < n; i++) printf("  %s%s\n", lines[i], i < n-1 ? "," : "")
    printf("  ]\n}\n")
}'
}

if [ "$mode" = "snapshot" ]; then
    out="${1:-bench-snapshot.json}"
    pattern="${BENCH:-TransientStep|FlowChange|CompactSteady|SteadyDirect|SolverBiCGSTAB|SolverGMRES|SolverGMRESWithRCMILU|CacheHit$|CacheHitFuzzy$|SweepShared|SweepUnshared|TransientSweepBatched|TransientSweepUnbatched|TransientSweepPool$|TransientSweepWarm$|SolveBlock$|StorePut$|StoreGet$|StoreReopen$|CacheHitDisk$|FactorAMD|FactorND|SerialRefactor|ResultsQuery$|ResultsQueryRepeat$|DisabledPoint$|StudyPool$|ILUApply$}"
    count="${BENCH_COUNT:-1}"
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    # With BENCH_COUNT > 1 the fastest sample per benchmark is kept —
    # pin a less noise-contaminated baseline before committing it.
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" ./internal/mat ./internal/fault . | tee "$tmp"
    emit_json "$benchtime" < "$tmp" > "$out"
    echo "wrote $out"
    exit 0
fi

if [ "$mode" = "profile" ]; then
    # Capture cpu/mem pprof profiles of the sweep benchmarks — the
    # heaviest end-to-end paths — so a regression flagged by the gate can
    # be diagnosed from the CI artifacts without a local repro.
    outdir="${1:-bench-profiles}"
    pattern="${BENCH:-SweepShared|TransientSweepBatched}"
    mkdir -p "$outdir"
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count 1 \
        -cpuprofile "$outdir/cpu.pprof" -memprofile "$outdir/mem.pprof" \
        -o "$outdir/bench.test" .
    echo "wrote $outdir/cpu.pprof $outdir/mem.pprof (binary: $outdir/bench.test)"
    exit 0
fi

# --- check mode: the benchmark-regression gate ---

base="${1:-$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1)}"
if [ -z "$base" ] || [ ! -f "$base" ]; then
    echo "bench-gate: no BENCH_*.json snapshot to check against" >&2
    exit 2
fi
echo "bench-gate: checking against $base (tolerance ${tolerance}x, benchtime $benchtime)"

# The -bench pattern matches the top-level benchmark names (sub-benchmark
# names like SolveBlock/solo50 select their parent); comparison
# below still happens per full pinned name.
names="$(awk -F'"' '/"name":/ {split($4, a, "/"); print a[1]}' "$base" | sort -u)"
if [ -z "$names" ]; then
    echo "bench-gate: $base pins no benchmarks" >&2
    exit 2
fi
pattern="^($(printf '%s' "$names" | tr '\n' '|'))$"

tmp="$(mktemp)"
fresh="${BENCH_GATE_OUT:-bench-gate.json}"
count="${BENCH_GATE_COUNT:-3}"
trap 'rm -f "$tmp"' EXIT
# -count 3, fastest sample per benchmark: a single descheduled run on a
# noisy shared runner must not trip the gate.
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" ./internal/mat ./internal/fault . | tee "$tmp"
emit_json "$benchtime" < "$tmp" > "$fresh"
echo "wrote $fresh"

# Gate ns/op, bytes/op and allocs/op per pinned benchmark at the same
# tolerance. Allocation metrics are gated only when the baseline
# allocates per operation (>= 4 allocs/op): for steady-state zero-alloc
# benchmarks the reported B/op is one-time setup amortized over b.N,
# which scales with benchtime and machine speed rather than with the
# code under test. Those hot paths pin themselves through dedicated
# AllocsPerRun guard tests; the gate catches the sweeps'
# bulk-allocation regressions, whose per-op counts are deterministic.
awk -F'"' -v tol="$tolerance" '
function metric(line, key,   rest) {
    rest = line
    if (!sub(".*\"" key "\":", "", rest)) return ""
    sub(/[,}].*/, "", rest)
    return rest
}
FNR == 1 { file++ }
/"name":/ {
    name = $4
    if (file == 1) {
        old_ns[name] = metric($0, "ns_per_op") + 0
        old_b[name]  = metric($0, "bytes_per_op")
        old_a[name]  = metric($0, "allocs_per_op")
    } else {
        new_ns[name] = metric($0, "ns_per_op") + 0
        new_b[name]  = metric($0, "bytes_per_op")
        new_a[name]  = metric($0, "allocs_per_op")
    }
}
function gate(name, unit, oldv, newv,   ratio, status) {
    ratio = (oldv > 0) ? newv / oldv : 1
    status = (ratio > tol) ? "FAIL" : "ok"
    printf("bench-gate: %-4s %-45s %14.0f -> %14.0f %s (%.2fx)\n", status, name, oldv, newv, unit, ratio)
    if (ratio > tol) {
        fails[nfail++] = sprintf("%s: %.0f -> %.0f %s (%.2fx slower, tolerance %.2fx)",
                                 name, oldv, newv, unit, ratio, tol)
        return 1
    }
    return 0
}
END {
    bad = 0
    for (name in old_ns) {
        if (!(name in new_ns)) {
            printf("bench-gate: FAIL %-45s pinned in snapshot but not rerun\n", name)
            fails[nfail++] = name ": pinned in snapshot but not rerun"
            bad++
            continue
        }
        bad += gate(name, "ns/op", old_ns[name], new_ns[name])
        if (old_a[name] != "" && new_a[name] != "" && old_a[name] + 0 >= 4) {
            if (old_b[name] != "" && new_b[name] != "")
                bad += gate(name, "B/op", old_b[name] + 0, new_b[name] + 0)
            bad += gate(name, "allocs/op", old_a[name] + 0, new_a[name] + 0)
        }
    }
    if (bad > 0) {
        printf("bench-gate: FAILED: %d metric(s) regressed past the %.2fx tolerance:\n", bad, tol)
        for (i = 0; i < nfail; i++)
            printf("bench-gate:   %s\n", fails[i])
        exit 1
    }
    print "bench-gate: all pinned benchmarks within tolerance"
}' "$base" "$fresh"
