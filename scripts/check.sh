#!/usr/bin/env bash
# check.sh — the pre-commit gate for the suite: static checks plus the
# race-sensitive packages (the threading substrate, the kernels whose
# correctness is chunk disjointness, the benchmark core, the campaign
# harness, the lock-free tracer, and the metric registry) under the race
# detector.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== one metrics path (no package-level obs registrations in serve, cluster, tune) =="
if grep -nE '^\s*obs[A-Z][A-Za-z]*\s*=\s*obs\.New|obs\.New(Counter|Gauge|GaugeFunc|Histogram)\(' $(ls internal/serve/*.go internal/cluster/*.go internal/tune/*.go | grep -v _test.go); then
    echo "metrics are fields of their owner, named once in ExportMetrics (DESIGN.md section 7)" >&2; exit 1
fi

echo "== one way to talk to a replica (cluster: body buffering, replica sends and pin writes stay in their one place) =="
# A body is buffered only by readSized (under readBody and attempt), a
# request reaches a replica only through attempt (and the prober's probeOne),
# and a rebalance pin is written only in rebalance.go (DESIGN.md section 11).
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /io\.ReadAll|httpc\.Do/ && fn !~ /^(readSized|attempt|probeOne)$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    /\.pinned = / && FILENAME !~ /rebalance\.go$/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/cluster/*.go | grep -v _test.go); then
    echo "replicas are asked through attempt, bodies buffered by readSized, pins settled by rehome (DESIGN.md section 11)" >&2; exit 1
fi

echo "== one panel codec (serve: unsafe lives in panel.go, a panel becomes bytes only there, one response-write site, one batch shape) =="
# The wire layout is the Dense layout (DESIGN.md section 8): panel.go is the
# only non-test file in the repository that imports unsafe and the only one
# in internal/serve that converts floats to or from bytes; nothing stages a
# panel per row or in a bytes.Buffer; handleMultiply has one site that writes
# its body and runBatch has one Calculate and one fan-out send.
if [ "$(grep -rl --include='*.go' '"unsafe"' . | grep -v _test.go)" != "./internal/serve/panel.go" ]; then
    echo 'only internal/serve/panel.go may import "unsafe":' >&2
    grep -rl --include='*.go' '"unsafe"' . | grep -v _test.go >&2; exit 1
fi
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    FILENAME !~ /panel\.go$/ && /PutUint64\(.*Float64bits|Float64frombits|make\(\[\]byte, [^)]*\*8\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    FILENAME ~ /(serve|batch)\.go$/ && /bytes\.Buffer/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    fn == "handleMultiply" && /w\.Write\(|WritePanel\(/ { writes++ }
    fn == "runBatch" && /\.Calculate\(/ { calcs++ }
    fn == "runBatch" && /turn <-/ { sends++ }
    END {
        if (writes != 1) { print "handleMultiply has " writes+0 " response-write sites, want 1"; bad = 1 }
        if (calcs != 1 || sends != 1) { print "runBatch has " calcs+0 " Calculate calls and " sends+0 " turn sends, want 1 and 1"; bad = 1 }
        exit bad
    }
' $(ls internal/serve/*.go | grep -v _test.go); then
    echo "panels cross the server through panelWire/WritePanel/ReadPanel in one pass (DESIGN.md section 8)" >&2; exit 1
fi

echo "== one panel pool (sync.Pool only in serve/pool.go; no unpooled panel-sized buffer on the data path) =="
# Every panel-sized buffer a multiply touches — the client's send copy, the
# server's B, the batcher's gathered B and wide C, both bodies the router
# buffers, the codec's strided scratch — is a lease from internal/serve/pool.go
# (DESIGN.md section 8, "Buffer ownership"), and its byte view goes through
# floatBytes: the gate above already keeps "unsafe" in panel.go alone. Four
# counts, each checked on its own so a failure names the site that grew back.
pool_bad=0
pools=$(grep -rn --include='*.go' 'sync\.Pool' . | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | sort -u)
if [ "$pools" != "./internal/serve/pool.go" ]; then
    echo "sync.Pool belongs to internal/serve/pool.go alone; found in: ${pools:-no file}" >&2; pool_bad=1
fi
if grep -n 'bytes\.Clone(' internal/serve/client.go; then
    echo "client.go copies a panel outside the pool" >&2; pool_bad=1
fi
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /matrix\.NewDense/ && (FILENAME ~ /batch\.go$/ || fn == "handleMultiply") { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' internal/serve/batch.go internal/serve/serve.go; then
    echo "the dispatch and the multiply handler lease their panels (leasePanel)" >&2; pool_bad=1
fi
if grep -n 'make(\[\]byte' $(ls internal/cluster/*.go | grep -v _test.go); then
    echo "the router buffers bodies in leases (readSized), not in fresh byte slices" >&2; pool_bad=1
fi
[ "$pool_bad" = 0 ] || exit 1

echo "== one inner loop (one .s file and one CPU probe, no fused multiply-add or rounding override in it, one scalar c[j] += v*b[j] body, no per-nonzero Axpy under a format, no gather buffer, no value test in front of the row entry, the row entry never loads C and nothing clears C in front of it, scalar-only build compiles) =="
# Every format accumulates through matrix.AxpyRow — one call per C row, the
# tile of C held in registers across the row's nonzeros — and the overlay,
# GEMM and the ablations through matrix.Axpy (DESIGN.md section 5). Both
# vector bodies multiply then add, lane by lane, so they are bit-identical to
# the Go loop (axpyScalar, which the row entry's Go body calls) — a fused
# instruction would round once and break every bitwise contract in the tree.
# The transposed-B loops index bt and are a different statement. go vet above
# ran asmdecl over the .s file.
asm=$(find . -name '*.s' -not -name '*_test.s' -not -path './.git/*')
if [ "$asm" != "./internal/matrix/axpy_amd64.s" ]; then
    echo "the only assembly in the tree is internal/matrix/axpy_amd64.s; found:" >&2; echo "$asm" >&2; exit 1
fi
if grep -nE 'VF(N?MADD|N?MSUB)|\.(R[NZUD]_)?SAE' "$asm"; then
    echo "fused multiply-add or rounding override in $asm: results would stop matching the scalar loop" >&2; exit 1
fi
# Which body runs is decided once, by cpuLevel in the .s file: a second
# CPUID anywhere would be a second switch.
if grep -nw 'CPUID' $(find . \( -name '*.go' -o -name '*.s' \) -not -path './.git/*' -not -path "$asm"); then
    echo "CPUID belongs to internal/matrix/axpy_amd64.s alone: one probe, one level (DESIGN.md section 5)" >&2; exit 1
fi
bodies=$(grep -nE '^\s*c\[j\] \+= v \* b\[j\]' $(ls internal/kernels/*.go internal/delta/*.go internal/matrix/*.go | grep -v _test.go))
if [ "$(echo "$bodies" | wc -l)" != 1 ] || [ "${bodies%%:*}" != "internal/matrix/axpy.go" ]; then
    echo "want exactly one scalar inner loop body, in internal/matrix/axpy.go; found:" >&2; echo "$bodies" >&2; exit 1
fi
# The row entry writes its tile of C without reading it: each tile of
# ROWTILES starts its accumulators at +0 in registers and stores them once, so
# no instruction in the macro takes (DI), the C tile, as a source. (Axpy's
# body, BLOCK16 and axpyAVX2, still accumulates into c and is not in it.)
if ! awk '
    /^#define ROWTILES/ { tiles = 1 }
    tiles && /\(DI\)(\([A-Z0-9*]+\))?[ \t]*,/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    tiles && !/\\$/ { tiles = 0 }
    END { exit bad }
' "$asm"; then
    echo "the row entry stores C once and never loads it: ROWTILES starts each tile at zero (DESIGN.md section 5)" >&2; exit 1
fi
# So C is not cleared in front of it either: a range function that hands a
# row to matrix.AxpyRow, AxpyRowStrided or AxpyRowBlock neither clears nor
# zeroes C — an empty row is the empty run, which writes zeros.
if ! awk '
    function flush() { if (calls && zeroes != "") { print zeroes; bad = 1 } calls = 0; zeroes = "" }
    FNR == 1 { flush() }
    /^func / { flush(); fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /matrix\.AxpyRow/ { calls = 1 }
    /clear\(|zeroK/ && zeroes == "" { zeroes = FILENAME ":" FNR ": in " fn ": " $0 }
    END { flush(); exit bad }
' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "the row entry writes every row it is handed, an empty run as zeros: no clear or zeroK in front of it (DESIGN.md section 5)" >&2; exit 1
fi
# A call per nonzero is what the row entry replaced: in internal/kernels only
# the dense reference and the two ablations that are not lattice points still
# make one.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /matrix\.Axpy\(/ && fn !~ /^(GEMM|cscCols|BCSRParallelInner)$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "range functions reach the inner loop through matrix.AxpyRow, one call per C row (DESIGN.md section 5)" >&2; exit 1
fi
# The row entry reads every format's pairs where the format stores them — a
# run, pairs a stride apart, a block lane — so nothing in internal/kernels
# copies them into a buffer first (DESIGN.md section 5).
if grep -nE 'rowBuf|gatherLen|\.(push|flush)\(' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "the row entry reads pairs in place: no gather buffer in front of it (DESIGN.md section 5)" >&2; exit 1
fi
# Which slots of a padded format are real is its stored RowLen, never a value
# test in front of the row entry: ELL and SELL-C-σ walk a row to its length
# and multiply what is there, stored zeros included, and the zeros inside a
# stored BCSR or BELL block, which are fill, are skipped by the row entry's
# block lane (DESIGN.md section 5). Only the transposed-B block-row loop and
# the inner-parallel ablation, which do not end in the row entry, test values.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    code ~ /== 0/ && fn !~ /^(bcsrBlockRowsT|BCSRParallelInner)$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' internal/kernels/ell.go internal/kernels/bell.go internal/kernels/bcsr.go; then
    echo "the row entry skips block fill and loops padded rows to RowLen; a value test in front of it scans the padding again or drops stored zeros" >&2; exit 1
fi
GOARCH=arm64 go vet ./internal/...

echo "== one kernel family (SpMV is Multiply at k = 1: no SpMV function, registry name or identifier outside examples/batchedspmv) =="
# A vector is a one-column panel: kernels.MultiplyVec views it and calls
# Multiply, so SpMV runs the lattice's kernels under the lattice's contract
# (DESIGN.md section 2). Prose may say SpMV; code may not spell it.
if ! awk '
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    tolower(code) ~ /spmv/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' $(find . -name '*.go' -not -name '*_test.go' -not -path './examples/batchedspmv/*' -not -path './.git/*'); then
    echo "SpMV is kernels.Multiply at k = 1 (kernels.MultiplyVec for callers holding slices): no second kernel family" >&2; exit 1
fi

echo "== one k loop per format (no fixed-k kernel family: no FixedK, fixedk, HasFixedK or ErrUnsupportedK in non-test Go) =="
# Every format's k loop is matrix.AxpyRow, hand-vectorised for any k, so a
# compile-time k would only drop the row entry's remainder tiles; Study 9
# prices those on the one generic kernel (DESIGN.md section 5).
if grep -nE 'FixedK|fixedk|ErrUnsupportedK' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*'); then
    echo "k is a runtime bound: one k loop per format, no fixed-k specialisation" >&2; exit 1
fi

echo "== one perf system (go run ./benchmark: no internal/perf, perf-baseline flag, PhaseMix or scripts/bench.sh) =="
# go run ./benchmark is the one instrument every change is judged by
# (benchmark/README.md, DESIGN.md section 5); a property it cannot see, such
# as an allocation count, is a test beside the code. A second gate with its
# own stored baselines drifts with the host and goes unread.
if grep -nE 'repro/internal/perf|perf-baseline|PhaseMix' $(find . -name '*.go' -not -path './.git/*'); then
    echo "one perf system: measure with go run ./benchmark, pin with a test" >&2; exit 1
fi
if [ -e scripts/bench.sh ]; then
    echo "scripts/bench.sh is retired: go run ./benchmark [-compare] is the one perf system" >&2; exit 1
fi

echo "== one simulator entry (machine.Simulate and Multicore.Simulate over formats.Sparse: no per-format Simulate*, *Parallel* method or transposed-B trace) =="
# The cost model has the kernels' shape (DESIGN.md section 2): the serial and
# the socket entry switch on the format's concrete type, as kernels.Multiply
# does, and each format has one trace whose inner-loop branch reads B tiled or
# transposed. The kernels' ablations (COOParallelReplicated,
# BCSRParallelInner) are functions, not Multicore methods, and stay.
if grep -nE 'func Simulate(COO|CSR|ELL|BCSR|CSRT)|func \([a-z]+ \*?Multicore\) (COO|CSR|ELL|BCSR)Parallel|func trace(COO|CSR|ELL|BCSR)T\b' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*'); then
    echo "one simulator entry: machine.Simulate / Multicore.Simulate take a formats.Sparse, kernels.Schedule and kernels.Inner" >&2; exit 1
fi

echo "== one fork/join (parallel.Pool is the only runner: no go statement in kernels, core or parallel outside NewPool; no For, ForBounds, ForDynamic, Exec, ScheduleDynamic or -pool flag) =="
# Every parallel kernel is one region on a Pool — the caller's, or
# parallel.Default(), the process pool — whose participants claim the
# region's pieces from one counter (DESIGN.md section 5, "Persistent pool").
# A goroutine spawned per call, a dynamic schedule beside the pool's own
# claiming, or a flag that picks between them would be a second machinery.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /(^|[^A-Za-z0-9_])go (func|[a-z])/ && fn != "NewPool" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/kernels/*.go internal/core/*.go internal/parallel/*.go | grep -v _test.go); then
    echo "a parallel region runs on a Pool: only NewPool starts goroutines in kernels, core and parallel" >&2; exit 1
fi
if grep -nE 'parallel\.(For|ForBounds|ForDynamic|Exec)\b|\bScheduleDynamic\b|\busePool\b|^func (For|ForBounds|ForDynamic)\(|^type Exec\b' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*'); then
    echo "one fork/join: Pool.Run and Pool.RunBounds on the caller's pool or parallel.Default()" >&2; exit 1
fi

echo "== go test -race (matrix, parallel, kernels, core, harness, trace, obs, serve, delta, tune, clock, cluster) =="
# The kernels package runs the differential sweep over every lattice point
# and the ctx-everywhere table here (~19 s under -race), so a partition
# that lets two workers touch one C row is a reported race, not a flaky
# bit — which is why a -race build runs the scalar inner loop only (the
# detector cannot see assembly stores; matrix's TestRaceBuildIsScalar pins
# it). -short skips the subprocess e2e; the full chaos suite (torn WAL tails,
# corrupt snapshots, injected fsync/disk-full faults), the deterministic
# auto-tuner suite (promotion hysteresis, duty bounds, wrong-variant
# rejection), the mutation suite (1000-batch mutation stream against
# concurrent bitwise-verified multiplies with background compactions, plus
# the mutate/compact chaos tests), and the in-process cluster suite
# (hash-ring properties, scripted kill/hang failover, rebalance-without-
# drain — including a join mid-mutation-stream — and the request-trace
# propagation test — one rid across router attempt spans, replica phase
# spans, and the slow-request log, under scripted failover) run here
# under -race.
go test -race -short ./internal/matrix/... ./internal/parallel/... ./internal/kernels/... ./internal/core/... ./internal/harness/... ./internal/trace/... ./internal/obs/... ./internal/serve/... ./internal/delta/... ./internal/tune/... ./internal/clock/... ./internal/cluster/...

echo "== flake gate (serve + delta + cluster, shuffled, 3x) =="
# The time-sensitive suites run on injected clocks; repeated shuffled runs
# keep them honest about ordering and residual real-time assumptions.
go test -short -count=3 -shuffle=on ./internal/serve/... ./internal/delta/... ./internal/cluster/...

echo "== crash-recovery e2e (SIGKILL mid-load, restart, bitwise verify) =="
go test -run '^TestCrashRecoveryE2E$' -count=1 ./internal/serve

echo "== mutation crash e2e (SIGKILL mid-mutation-stream, restart, bitwise verify) =="
go test -run '^TestMutationCrashRecoveryE2E$' -count=1 ./internal/serve

echo "== cluster e2e (router + 3 replicas, SIGKILL a holder mid-load, rebalance) =="
go test -run '^TestClusterSmokeE2E$' -count=1 ./internal/cluster

echo "== bench smoke (1 iteration per bench) =="
go test -run '^$' -bench . -benchtime=1x . ./internal/kernels ./internal/parallel ./internal/serve ./internal/delta > /dev/null

echo "check.sh: all checks passed"
