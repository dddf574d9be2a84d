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

echo "== one metrics path (no package-level obs registrations in serve, cluster) =="
if grep -nE '^\s*obs[A-Z][A-Za-z]*\s*=\s*obs\.New|obs\.New(Counter|Gauge|GaugeFunc|Histogram)\(' $(ls internal/serve/*.go internal/cluster/*.go | grep -v _test.go); then
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

echo "== one inner loop (one .s file and one CPU probe, no fused multiply-add or rounding override in it, one scalar c[j] += v*b[j] body, no per-nonzero Axpy under a format, no gather buffer, no value test in front of the row entry, the row entry loads C only to continue a run and nothing clears C in front of it, scalar-only build compiles) =="
# Every format accumulates through matrix.AxpyRow — one call per C row, the
# tile of C held in registers across the row's nonzeros — and the overlay,
# GEMM and the ablation through matrix.Axpy (DESIGN.md section 5). Both
# vector bodies multiply then add, lane by lane, so they are bit-identical to
# the Go loop (axpyScalar, which the row entry's Go body calls) — a fused
# instruction would round once and break every bitwise contract in the tree.
# go vet above ran asmdecl over the .s file.
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
# The row entry writes its tile of C without reading it unless the run
# continues the row: each tile of ROWTILES tests the entry's acc argument
# (CMPB ACC) and starts its accumulators at +0 in registers, or — only then —
# loads them from the C tile in its row*Load* block, and stores them once.
# So no instruction in the macro outside a row*Load* block (from its label
# to the row*First* label after it) takes (DI), the C tile, as a source, and
# each Load block is entered only by the JNE after a CMPB ACC. (Axpy's body,
# BLOCK16 and axpyAVX2, still accumulates into c and is not in it.)
if ! awk '
    /^#define ROWTILES/ { tiles = 1 }
    tiles && /^row[A-Za-z]*Load[0-9]*:/ { load = 1; label = $1; sub(/:.*/, "", label); if (!(label in entered)) { print FILENAME ":" FNR ": " label " is not entered by a JNE after CMPB ACC"; bad = 1 } }
    tiles && /^row[A-Za-z]*First[0-9]*:/ { load = 0 }
    tiles && /CMPB[ \t]+ACC,/ { cmp = FNR }
    tiles && /JNE[ \t]+row[A-Za-z]*Load[0-9]*/ && cmp == FNR - 1 { l = $0; sub(/^[ \t]*JNE[ \t]+/, "", l); sub(/[ \t\\].*/, "", l); entered[l] = 1 }
    tiles && !load && /\(DI\)(\([A-Z0-9*]+\))?[ \t]*,/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    tiles && !/\\$/ { tiles = 0 }
    END { exit bad }
' "$asm"; then
    echo "the row entry loads C only to continue a run (acc): ROWTILES starts each tile at zero otherwise (DESIGN.md section 5)" >&2; exit 1
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
# the dense reference and the inner-parallel ablation, which is not a lattice
# point, still make one.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /matrix\.Axpy\(/ && fn !~ /^(GEMM|BCSRParallelInner)$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
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
# block lane (DESIGN.md section 5). Only the inner-parallel ablation, which
# is not a lattice point and does not end in the row entry, tests values.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    code ~ /== 0/ && fn != "BCSRParallelInner" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' internal/kernels/ell.go internal/kernels/bell.go internal/kernels/bcsr.go; then
    echo "the row entry skips block fill and loops padded rows to RowLen; a value test in front of it scans the padding again or drops stored zeros" >&2; exit 1
fi
GOARCH=arm64 go vet ./internal/...

echo "== every kernel bitwise (internal/kernels: no Bitwise contract field, no private copy of C, no entry refusing a Spec) =="
# Every variant sums each C element's products in ascending column order, so
# the differential sweep holds every one to csr-serial bit for bit (DESIGN.md
# section 5). A reduction over private copies of C reassociates those sums:
# the CSC and replicated-COO kernels that did were slower than their lattice
# counterparts in every cell (EXPERIMENTS.md, "COO partition and CSC on the
# host") and are gone. So no non-test file in internal/kernels names a
# Bitwise field or allocates a C-sized Dense, and no entry returns ErrSpec:
# every lattice row is row-parallel.
if ! awk '
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    code ~ /(^|[^A-Za-z0-9_])Bitwise([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    code ~ /matrix\.NewDense(\[[^]]*\])?\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    code ~ /(^|[^A-Za-z0-9_])ErrSpec([^A-Za-z0-9_]|$)/ && code !~ /^var ErrSpec = / { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "one contract: every kernel is bitwise equal to csr-serial and takes every Spec (DESIGN.md section 5)" >&2; exit 1
fi

echo "== one inner loop per format (no host transposed-B kernel: InnerTransB only where it is declared and in csr-gpu-t's registration, no *RowsT or *TripletsT function, no Transposed() method) =="
# Every host kernel reads B row by row through the row entry; Study 8's
# transposed-B loop lives only in the simulators (machine.Simulate,
# gpusim.SpMM), which take kernels.Inner as an argument, and in the simulated
# device's csr-gpu-t, which transposes B on the device. The CPU family was
# retired after the host table in EXPERIMENTS.md ("Study 8 on the host")
# read every transposed kernel at 0.04–0.78× its plain one.
if ! awk '
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    code ~ /InnerTransB/ && code !~ /^[ \t]*InnerTransB[ \t]*$/ && !(FILENAME ~ /^internal\/core\/registry\.go$/ && code ~ /"csr-gpu-t"/) { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/kernels/*.go internal/core/*.go | grep -v _test.go); then
    echo "InnerTransB is the simulators' argument: no host kernel reads Bᵀ (EXPERIMENTS.md, Study 8 on the host)" >&2; exit 1
fi
if grep -nE '^func (\([^)]*\) )?[A-Za-z0-9_]*(RowsT|TripletsT)\b|^func \([^)]*\) Transposed\(|^[[:space:]]+Transposed\(\)' $(find . -name '*.go' -not -path './.git/*'); then
    echo "one inner loop per format: no transposed-B range function, and no kernel consumes Bᵀ (core.Kernel has no Transposed)" >&2; exit 1
fi

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

echo "== one k loop per format (no fixed-k kernel family: no FixedK, fixedk, HasFixedK or ErrUnsupportedK in non-test Go; no tileK or *Panel range function in kernels; no j0 on a row entry in matrix) =="
# Every format's k loop is matrix.AxpyRow, hand-vectorised for any k, so a
# compile-time k would only drop the row entry's remainder tiles; Study 9
# prices those on the one generic kernel (DESIGN.md section 5).
if grep -nE 'FixedK|fixedk|ErrUnsupportedK' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*'); then
    echo "k is a runtime bound: one k loop per format, no fixed-k specialisation" >&2; exit 1
fi
# Nor does a range function split k into panels around the row entry: each
# hands it one C row with all k columns, and its tile ladder walks them. A
# panel loop re-walked A and the B rows once per 128 columns (EXPERIMENTS.md,
# Study 4 on the host), and a row entry that takes a column offset is what
# such a loop needs.
if grep -nE '\btileK\b|^func (\([^)]*\) )?[A-Za-z0-9_]*Panel\b' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "one k loop: no tileK or *Panel range function in internal/kernels (DESIGN.md section 5)" >&2; exit 1
fi
if grep -nE '^func (AxpyRow[A-Za-z]*|rowB)\b.*\bj0\b' $(ls internal/matrix/*.go | grep -v _test.go); then
    echo "one k loop: the row entry takes B from column 0, with no j0 (DESIGN.md section 5)" >&2; exit 1
fi

echo "== one slab walk (passes over A's columns only in kernels.walk: no passSlab call, slab literal or ranger pass outside slab.go's walk) =="
# Every format's entry hands its range function to walk (slab.go), the one
# loop over the passes of the slab walk; a range function takes the pass's
# slab as an argument and cuts each row's run from it. A per-format copy of
# the pass loop would be a second kernel per format, and the slab rule
# (slabbed) would stop being the one place that decides (DESIGN.md
# section 5). So outside walk nothing calls passSlab, only slab.go writes a
# slab literal, and a ranger's rows is called only by walk, by the pass a
# parallel walk hands the pool (Range), or over the whole slab.
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    code ~ /passSlab\(/ && code !~ /^func passSlab/ && fn != "walk" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    code ~ /(^|[^A-Za-z0-9_])slab\{/ && FILENAME !~ /slab\.go$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    code ~ /\.rows\(/ && code !~ /\.rows\([^()]*, whole\)/ && fn !~ /^(walk|Range)$/ { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
    END { exit bad }
' $(ls internal/kernels/*.go | grep -v _test.go); then
    echo "one slab walk: passes over A's columns run in kernels.walk alone (DESIGN.md section 5)" >&2; exit 1
fi

echo "== no throwaway block format (no BCSRFromCOO call in non-test internal/advisor or in internal/formats/bell.go) =="
# The advisor reads one ratio off the 4x4 blocks, and BELL lays its block
# rows out itself: both run the block pass BCSR runs (formats.BlockFill,
# BELLFromCOO), so a BCSR built for either would be built to be thrown away
# (DESIGN.md section 2).
if grep -nE '\bBCSRFromCOO(Map)?(\[[^]]*\])?\(' $(ls internal/advisor/*.go | grep -v _test.go) internal/formats/bell.go; then
    echo "no throwaway block format: count the fill with formats.BlockFill, lay BELL out from the block pass" >&2; exit 1
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
# transposed. The kernels' ablation (BCSRParallelInner) is a function, not
# a Multicore method, and stays.
if grep -nE 'func Simulate(COO|CSR|ELL|BCSR|CSRT)|func \([a-z]+ \*?Multicore\) (COO|CSR|ELL|BCSR)Parallel|func trace(COO|CSR|ELL|BCSR)T\b' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*'); then
    echo "one simulator entry: machine.Simulate / Multicore.Simulate take a formats.Sparse, kernels.Schedule and kernels.Inner" >&2; exit 1
fi

echo "== one GPU entry (gpusim.SpMM and vendorlib.SpMM on gpusim.Offload: no per-format SpMM* entry, no call to a retired one, one product loop in Operands.MulAdd) =="
# The naive offload kernels are one blocked row walk plus COO's atomic body,
# the tuned ones two warp bodies, and all of them share Offload's launch
# scaffold and MulAdd's c += v·b loop (DESIGN.md section 2). A per-format
# entry or a second product loop would be a hand copy of them.
gpu_go=$(ls internal/gpusim/*.go internal/vendorlib/*.go | grep -v _test.go)
if grep -nE '^func (\([^)]*\) )?SpMM[A-Za-z0-9_]+\(' $gpu_go; then
    echo "one GPU entry per package: gpusim.SpMM(d, a, b, c, k, inner) and vendorlib.SpMM(d, a, b, c, k)" >&2; exit 1
fi
if grep -nE '\b(SpMM(COO|CSRT?|ELL|BCSR|BELL)|TransposeDense|UploadDenseK|DownloadDenseK)\(' $(find . -name '*.go' -not -path './.git/*'); then
    echo "the per-format GPU entries are retired: call gpusim.SpMM or vendorlib.SpMM" >&2; exit 1
fi
if ! awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
    /^[ \t]*\/\// { next }
    /\[[A-Za-z0-9_]+\] \+= [A-Za-z0-9_.]+ \* / { if (fn == "MulAdd") loops++; else { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 } }
    END { if (loops != 1) { print "want one product loop, in Operands.MulAdd; found " loops+0; bad = 1 } exit bad }
' $gpu_go; then
    echo "every GPU SpMM body accumulates through gpusim.Operands.MulAdd, the one per-lane product loop" >&2; exit 1
fi

echo "== one cache model (one set-associative LRU, in internal/cachesim: no age or tick in machine or gpusim, no tag array elsewhere, no machine in the servers) =="
# The CPU levels and the GPU's L2 are one cachesim.LRU, each set kept
# most-recent-first (DESIGN.md section 2). A per-way age stamp, or a second
# set-associative tag scan, would be a hand copy of it; the warp's
# direct-mapped L1 (gpusim's l1 slot array) is not set-associative. cachesim
# imports nothing from the module, so gpusim's use of it links no
# spmm_machine_* counter into spmmserve or spmmrouter.
if ! awk '
    /^[ \t]*\/\// { next }
    { code = $0; sub(/[ \t]\/\/.*/, "", code) }
    FILENAME ~ /^internal\/(machine|gpusim)\// && code ~ /(^|[^A-Za-z0-9_])(age|tick)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    code ~ /(^|[^A-Za-z0-9_.])(ways|tags|setMask|lruWay)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }
' $(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' -not -path './internal/cachesim/*' | sed 's|^\./||'); then
    echo "one cache model: set-associative LRU lives in internal/cachesim alone, kept in recency order" >&2; exit 1
fi
if go list -deps ./cmd/spmmserve ./cmd/spmmrouter | grep -qx 'repro/internal/machine'; then
    echo "spmmserve or spmmrouter links internal/machine: its spmm_machine_* counters would join their /metrics" >&2; exit 1
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

echo "== go test -race (matrix, parallel, kernels, core, harness, trace, obs, serve, delta, clock, cluster) =="
# The kernels package runs the differential sweep over every lattice point
# and the ctx-everywhere table here (~19 s under -race), so a partition
# that lets two workers touch one C row is a reported race, not a flaky
# bit — which is why a -race build runs the scalar inner loop only (the
# detector cannot see assembly stores; matrix's TestRaceBuildIsScalar pins
# it). -short skips the subprocess e2e; the full chaos suite (torn WAL tails,
# corrupt snapshots, injected fsync/disk-full faults), the mutation suite (1000-batch mutation stream against
# concurrent bitwise-verified multiplies with background compactions, plus
# the mutate/compact chaos tests), and the in-process cluster suite
# (hash-ring properties, scripted kill/hang failover, rebalance-without-
# drain — including a join mid-mutation-stream — and the request-trace
# propagation test — one rid across router attempt spans, replica phase
# spans, and the slow-request log, under scripted failover) run here
# under -race.
go test -race -short ./internal/matrix/... ./internal/parallel/... ./internal/kernels/... ./internal/core/... ./internal/harness/... ./internal/trace/... ./internal/obs/... ./internal/serve/... ./internal/delta/... ./internal/clock/... ./internal/cluster/...

echo "== flake gate (serve + delta + cluster, shuffled, 3x) =="
# The time-sensitive suites run on injected clocks; repeated shuffled runs
# keep them honest about ordering and residual real-time assumptions.
go test -short -count=3 -shuffle=on ./internal/serve/... ./internal/delta/... ./internal/cluster/...

echo "== known flakes (each test CHANGES.md records as having failed by chance, 20x) =="
# Each of these once failed by chance. 20 clean runs each keep them from
# drifting back: a time bound, a rounding or an ordering that holds only
# most of the time fails here rather than in a later change's tier-1 run.
flake_start=$SECONDS
go test -count=20 -run '^TestRequestTracePropagation$|^TestRebalanceMidMutationStream$' ./internal/cluster
go test -count=20 -run '^TestMultiplyRequestTracing$|^TestLeaseLifecycle$' ./internal/serve
echo "known flakes: 20 runs each in $((SECONDS - flake_start)) s"

echo "== allocation budgets (one multiply, direct and routed, its deadline and its timing header; 10x) =="
# A multiply allocates nothing of this repository's own beyond its result
# and its Content-Length value (DESIGN.md section 8, "Allocations of one
# multiply"). The round-trip pins
# read runtime.MemStats, which counts every goroutine in the process, so each
# runs ten times: a pin that passes once while sitting at its bound fails here.
go test -count=10 -run '^TestMultiplyAllocBudget$|^TestAdmissionZeroAllocUnderDeadline$|^TestPreparedHitZeroAllocUnderDeadline$|^TestFormatTimingOneAlloc$' ./internal/serve
go test -count=10 -run '^TestRoutedMultiplyAllocBudget$' ./internal/cluster

echo "== crash-recovery e2e (SIGKILL mid-load, restart, bitwise verify) =="
go test -run '^TestCrashRecoveryE2E$' -count=1 ./internal/serve

echo "== mutation crash e2e (SIGKILL mid-mutation-stream, restart, bitwise verify) =="
go test -run '^TestMutationCrashRecoveryE2E$' -count=1 ./internal/serve

echo "== cluster e2e (router + 3 replicas, SIGKILL a holder mid-load, rebalance) =="
go test -run '^TestClusterSmokeE2E$' -count=1 ./internal/cluster

echo "== committed results (regenerate Table 5.1, Studies 1-8, sched and the footprint table with results/README.md's command; cmp every CSV) =="
# The simulated studies are deterministic, so a change to either simulator
# that is meant to keep its numbers proves it here, byte for byte, at the
# committed scale (TestAllStudiesRun pins the same sections at a tiny one).
# Study 9 times the real kernels on the host and stays out.
regen=$(mktemp -d)
trap 'rm -rf "$regen"' EXIT
regen_start=$SECONDS
go run ./cmd/spmmstudy -study props,1,2,3,3.1,4,5,6,7,8,mem,sched -scale 0.035 -gpuscale 0.015 -quiet -csv "$regen" > /dev/null
echo "regenerated in $((SECONDS - regen_start)) s"
regen_bad=0
for f in results/csv/*.csv; do
    name=$(basename "$f")
    case "$name" in study9_*) continue ;; esac
    if [ ! -e "$regen/$name" ]; then
        echo "results/csv/$name: not regenerated" >&2; regen_bad=1
    elif ! cmp "$f" "$regen/$name" >&2; then
        regen_bad=1
    fi
done
for f in "$regen"/*.csv; do
    if [ ! -e "results/csv/$(basename "$f")" ]; then
        echo "$(basename "$f"): regenerated but not committed in results/csv" >&2; regen_bad=1
    fi
done
if [ "$regen_bad" != 0 ]; then
    echo "the simulated results moved: recommit them with results/README.md's command, or find what changed the model" >&2; exit 1
fi

echo "== bench smoke (1 iteration per bench) =="
go test -run '^$' -bench . -benchtime=1x . ./internal/formats ./internal/kernels ./internal/parallel ./internal/serve ./internal/delta > /dev/null

echo "check.sh: all checks passed"
