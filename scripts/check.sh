#!/bin/sh
# Repository health check, the one CI script (bench/run.sh is the one
# benchmark). In order:
#   - gofmt, go vet (native and GOARCH=arm64), build, the full test
#     suite (which carries the 0 allocs/op gates of the telemetry,
#     flight-recorder, admission and host-kernel hot paths), and vet
#     plus short tests of the separate bench/ module, which root ./...
#     never builds;
#   - race runs over the concurrency-heavy packages: virtual-time
#     fabric, MPI-like layer, distributed spMVM, fault plans, fault-
#     tolerant solver, the shared solver loops every rank runs,
#     telemetry, flight recorder, health, service, the GPU worker
#     pool, the ingest-and-convert pipeline, host kernels and tuner;
#   - bounded fuzz runs of the tuning-DB tail reader, the fault DSL,
#     the Chrome-trace reader, the profile.proto reader, service
#     matrix uploads, the binary matrix reader and the MatrixMarket
#     reader's decimal fast path against strconv.ParseFloat;
#   - host-kernel wall-clock gates: best-of-3 blocked CRS ns/nnz must
#     beat best-of-3 naive, best-of-3 SELL-8 (the default kind where
#     core.GroupKernel() is true) must beat best-of-3 blocked CRS, and
#     best-of-3 pJDS (SELL-32-N) must stay within 1.25x of best-of-3
#     SELL-8;
#   - smokes: host-kernel byte-diff (every -hostbench digest identical),
#     format tuning (digests MATCH, auto pick within 1.25x of pJDS,
#     winner surfaced by matinfo -recommend and perfreport -tune,
#     second run answered from the tuning-DB cache), conversion
#     determinism (matinfo at 1 vs 4 workers byte-identical),
#     distributed determinism (scaling text and Prometheus file at 1
#     vs 4 workers byte-identical, both device formats), seeded
#     chaos with a perfreport-readable flight-recorder dump, live
#     endpoints of a held scaling run plus spmvtop, the spmvd chaos
#     swarm, and the spmvd lifecycle (upload, ECC downgrade with
#     bit-identical digests, SIGTERM drain to exit 0);
#   - a perfreport self-diff (two identical runs, zero regressions)
#     and the labeled-profile gate (>= 90% of CPU samples attributed).
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== gofmt =="
test -z "$(gofmt -l .)" || {
    echo "files need gofmt:" >&2
    gofmt -l . >&2
    exit 1
}

echo "== go vet =="
go vet ./...

echo "== go vet, GOARCH=arm64 (the non-amd64 fallbacks build) =="
# The AVX-512 group kernel is amd64 assembly; every other architecture
# must build the Go fallback of each assembly function.
GOARCH=arm64 go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== bench module (separate go.mod, not covered by ./...) =="
(cd bench && go vet ./... && go test -short ./...)

echo "== go test -race (concurrent packages) =="
# telemetry includes the scrape-while-write hammer; flight the
# concurrent ring record/snapshot test.
go test -race ./internal/telemetry/... ./internal/simnet/... \
    ./internal/mpi/... ./internal/distmv/... \
    ./internal/faults/... ./internal/distsolver/... \
    ./internal/solver/... ./internal/flight/... ./internal/health/... \
    ./internal/service/...

echo "== go test -race (gpu worker pool, Workers>1) =="
go test -race ./internal/gpu/...

echo "== go test -race (ingest-and-convert pipeline) =="
go test -race ./internal/matrix/... ./internal/core/... \
    ./internal/par/... ./internal/convert/...

echo "== go test -race (host kernels, worker pools, tuner) =="
go test -race ./internal/hostkernel/... ./internal/model/... \
    ./internal/tuner/...

echo "== fuzz (tuning-DB tail reader, fault DSL, trace and profile.proto readers, service uploads, binary matrix reader, MatrixMarket value fast path, bounded) =="
# The checked-in corpora already run under go test; this explores
# beyond them for a fixed time.
go test -run '^$' -fuzz '^FuzzTuningDB$' -fuzztime 10s ./internal/tuner/
go test -run '^$' -fuzz '^FuzzFaultsParse$' -fuzztime 10s ./internal/faults/
# Go's minimizer may spend up to a minute, by default, shrinking one
# new multi-kilobyte trace while no input runs; 2s keeps the 10s
# exploring.
go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 10s -fuzzminimizetime 2s ./internal/telemetry/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/profiles/
go test -run '^$' -fuzz '^FuzzAddMatrix$' -fuzztime 10s ./internal/service/
go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime 10s ./internal/matrix/
go test -run '^$' -fuzz '^FuzzParseMMValue$' -fuzztime 10s ./internal/matrix/

echo "== host-kernel speed gate (best-of-3 blocked below naive, SELL-8 below blocked) =="
# Wall-clock: the minimum over 3 runs on each side absorbs scheduler
# noise on a small shared host. SELL-8 is the default host kind where
# core.GroupKernel() is true, so it must beat the blocked CRS kernel it
# replaced.
go test -run '^$' -bench '^(BenchmarkHostNaive|BenchmarkHostCRS|BenchmarkHostSELL)$' \
    -benchtime 300x -count 3 ./internal/hostkernel/ >"$TMP/hostbench.out"
awk '
    $1 ~ /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 1; i < NF; i++)
            if ($(i+1) == "ns/nnz" && (!(name in best) || $i + 0 < best[name]))
                best[name] = $i + 0
    }
    END {
        naive = best["BenchmarkHostNaive"]
        blocked = best["BenchmarkHostCRS"]
        if (naive == "" || blocked == "" || blocked >= naive) {
            printf "blocked %s ns/nnz not below naive %s ns/nnz\n", blocked, naive > "/dev/stderr"
            exit 1
        }
        printf "blocked %.3f ns/nnz < naive %.3f ns/nnz\n", blocked, naive
        c8 = best["BenchmarkHostSELL/c8"]
        if (c8 == "" || c8 >= blocked) {
            printf "SELL-8 %s ns/nnz not below blocked %s ns/nnz\n", c8, blocked > "/dev/stderr"
            exit 1
        }
        printf "SELL-8 %.3f ns/nnz < blocked %.3f ns/nnz\n", c8, blocked
    }' "$TMP/hostbench.out" || {
    cat "$TMP/hostbench.out" >&2
    exit 1
}

echo "== host pJDS speed gate (best-of-3 pJDS within 1.25x of best-of-3 SELL-8) =="
# pJDS is SELL-32-N: its chunks run in the same register-blocked
# eight-lane groups as C = 8, so only the global sort's poorer x
# locality may cost it. Three rounds of one run each, so both sides of
# a round share the machine's current speed.
for round in 1 2 3; do
    go test -run '^$' -bench '^(BenchmarkHostPJDS|BenchmarkHostSELL)$' \
        -benchtime 300x ./internal/hostkernel/
done >"$TMP/pjdsbench.out"
awk '
    $1 ~ /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 1; i < NF; i++)
            if ($(i+1) == "ns/nnz" && (!(name in best) || $i + 0 < best[name]))
                best[name] = $i + 0
    }
    END {
        pjds = best["BenchmarkHostPJDS"]
        c8 = best["BenchmarkHostSELL/c8"]
        if (pjds == "" || c8 == "" || pjds > 1.25 * c8) {
            printf "pJDS %s ns/nnz above 1.25x SELL-8 %s ns/nnz\n", pjds, c8 > "/dev/stderr"
            exit 1
        }
        printf "pJDS %.3f ns/nnz <= 1.25x SELL-8 %.3f ns/nnz\n", pjds, c8
    }' "$TMP/pjdsbench.out" || {
    cat "$TMP/pjdsbench.out" >&2
    exit 1
}

echo "== host-kernel byte-diff smoke (blocked and sell vs naive) =="
# Every host kernel must produce byte-identical results: the digest
# lines of spmvbench -hostbench hash the float64 bit patterns of y.
go run ./cmd/spmvbench -hostbench -host-kernel naive -host-iters 1 \
    -scale 0.02 | grep '^digest ' >"$TMP/host-naive"
go run ./cmd/spmvbench -hostbench -host-kernel blocked -host-iters 1 \
    -scale 0.02 | grep '^digest ' >"$TMP/host-blocked"
go run ./cmd/spmvbench -hostbench -host-kernel sell -host-iters 1 \
    -scale 0.02 | grep '^digest ' >"$TMP/host-sell"
go run ./cmd/spmvbench -hostbench -host-kernel cmrs -host-iters 1 \
    -scale 0.02 | grep '^digest ' >"$TMP/host-cmrs"
cmp "$TMP/host-naive" "$TMP/host-blocked"
cmp "$TMP/host-naive" "$TMP/host-sell"
cmp "$TMP/host-naive" "$TMP/host-cmrs"

echo "== format tuning smoke (tune -> recommend -> run, digest + cache gates) =="
# The auto-tuner sweeps the (C, σ) grid once, every tuned pick must be
# bit-identical to the naive CSR reference (the MATCH digest lines) and
# no more than 1.25x slower than the pJDS preset (best of 5 timed runs
# on each side, the two sides alternating run by run, so host load
# lands on both sides alike), matinfo -recommend and perfreport -tune
# must surface the persisted winner, and a second bench run must answer
# every matrix from the DB without re-sweeping.
go run ./cmd/spmvbench -format auto -scale 0.02 -host-iters 5 \
    -tuning-db "$TMP/tuning.jsonl" -tune-json "$TMP/tune1.json" >"$TMP/tune1.out"
grep '^digest ' "$TMP/tune1.out" | grep -v ' MATCH ' && {
    echo "a tuned pick diverged from the naive digest:" >&2
    cat "$TMP/tune1.out" >&2
    exit 1
}
# Each matrix prints its auto/pJDS ratio beside how many cells of its
# sweep's grid were measured (read from the tuning DB), so a failing
# run shows the grid the pick came from.
awk '
    FILENAME == ARGV[1] {
        if (match($0, /"matrix":"[^"]*"/)) {
            name = substr($0, RSTART + 10, RLENGTH - 11)
            cells = substr($0, index($0, "\"cells\":["))
            grid[name] = gsub(/"format":/, "", cells)
            measured[name] = gsub(/"measured_ns_per_nnz":/, "", cells)
        }
        next
    }
    /"matrix":/ { m = $2; gsub(/[",]/, "", m) }
    /"auto_ns_per_nnz":/ { auto = $2 + 0 }
    /"pjds_ns_per_nnz":/ {
        n++
        printf "%s: auto/pJDS %.2f, %d of %d grid cells measured\n", m, ($2 + 0 > 0 ? auto / ($2 + 0) : 0), measured[m], grid[m]
        if (auto <= 0 || $2 + 0 <= 0 || auto > 1.25 * $2) {
            printf "%s: auto pick %g ns/nnz vs pJDS %g, want within 1.25x\n", m, auto, $2 + 0 > "/dev/stderr"
            bad = 1
        }
    }
    END { exit bad || n == 0 }' "$TMP/tuning.jsonl" "$TMP/tune1.json" || {
    cat "$TMP/tune1.json" >&2
    exit 1
}
go run ./cmd/matinfo -gen sAMG -scale 0.02 -recommend \
    -tuning-db "$TMP/tuning.jsonl" >"$TMP/recommend.out"
grep -q '^tuned: ' "$TMP/recommend.out" || {
    echo "matinfo -recommend did not surface the tuned winner:" >&2
    cat "$TMP/recommend.out" >&2
    exit 1
}
go run ./cmd/perfreport -tune -tuning-db "$TMP/tuning.jsonl" >/dev/null
go run ./cmd/spmvbench -format auto -scale 0.02 -host-iters 1 \
    -tuning-db "$TMP/tuning.jsonl" >"$TMP/tune2.out"
if grep '^digest ' "$TMP/tune2.out" | grep -qv ' MATCH ' ||
    grep -E '^[A-Za-z0-9]+ +[0-9]+ +[0-9]+ .* sweep ' "$TMP/tune2.out" >/dev/null; then
    echo "second tuning run re-swept or lost bit-identity:" >&2
    cat "$TMP/tune2.out" >&2
    exit 1
fi

echo "== conversion determinism smoke (matinfo, 1 vs 4 workers) =="
# The parallel ingest/convert pipeline must be bit-identical to the
# sequential one: same stats, same footprints, same re-serialized file.
go run ./cmd/matinfo -gen HMEp -scale 0.02 -out "$TMP/m.mtx" >/dev/null
go run ./cmd/matinfo -workers 1 -out "$TMP/w1.mtx" "$TMP/m.mtx" |
    grep -v '^wrote ' >"$TMP/out1"
go run ./cmd/matinfo -workers 4 -out "$TMP/w4.mtx" "$TMP/m.mtx" |
    grep -v '^wrote ' >"$TMP/out4"
cmp "$TMP/w1.mtx" "$TMP/w4.mtx"
cmp "$TMP/out1" "$TMP/out4"

echo "== distributed determinism smoke (scaling, 1 vs 4 workers) =="
# The per-worker halo-slot arrays of the rank distribution and the
# cached mpi/simnet telemetry handles must not depend on the worker
# count: the Fig. 5 text and the Prometheus file are byte-identical.
go build -o "$TMP/bin/" ./cmd/scaling
for f in ellpack-r pjds; do
    for w in 1 4; do
        "$TMP/bin/scaling" -matrix DLR1 -scale 0.02 -nodes 1,2,4,8 -iters 1 \
            -format "$f" -workers "$w" -metrics-out "$TMP/dist-$f-w$w.prom" |
            grep -v 'wrote metrics to' >"$TMP/dist-$f-w$w.out"
    done
    cmp "$TMP/dist-$f-w1.out" "$TMP/dist-$f-w4.out"
    cmp "$TMP/dist-$f-w1.prom" "$TMP/dist-$f-w4.prom"
done

echo "== chaos smoke (1 dropped message + 1 rank crash, seed 42) =="
# Injects one message drop and one mid-solve rank crash into the
# recoverable distributed CG; the run must recover, stay bit-identical
# to the fault-free solve, and reproduce under the same seed. The
# flight recorder rides along: the injected crash must trigger a
# post-incident dump that perfreport -trace-in can analyze.
go run ./cmd/chaos -smoke -flight-dump "$TMP/incident.json"
test -s "$TMP/incident.json" || {
    echo "chaos crash did not trigger a flight-recorder dump" >&2
    exit 1
}
go run ./cmd/perfreport -trace-in "$TMP/incident.json" >/dev/null

echo "== live endpoint smoke (scaling -metrics-addr, spmvtop) =="
# A held scaling run must serve every observability endpoint with a
# non-empty 200 body, and spmvtop must render a live frame against it.
go build -o "$TMP/bin/" ./cmd/scaling ./cmd/spmvtop
# Create the output file first: the poll below reads it under set -e,
# possibly before the backgrounded scaling has opened it.
: >"$TMP/scaling.out"
"$TMP/bin/scaling" -matrix DLR1 -scale 0.02 -nodes 2 -iters 1 \
    -metrics-addr 127.0.0.1:0 -flight -hold 60s >"$TMP/scaling.out" 2>&1 &
SCALING_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's|^metrics on http://\([^/]*\)/metrics$|\1|p' "$TMP/scaling.out")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.2
done
if [ -z "$ADDR" ]; then
    echo "scaling never bound its metrics endpoint:" >&2
    cat "$TMP/scaling.out" >&2
    kill "$SCALING_PID" 2>/dev/null || true
    exit 1
fi
for p in /metrics /metrics.json /healthz /spans /health /dashboard; do
    CODE=$(curl -s -o "$TMP/body" -w '%{http_code}' "http://$ADDR$p")
    if [ "$CODE" != 200 ] || ! [ -s "$TMP/body" ]; then
        echo "GET $p returned HTTP $CODE ($(wc -c <"$TMP/body") bytes), want non-empty 200" >&2
        kill "$SCALING_PID" 2>/dev/null || true
        exit 1
    fi
done
"$TMP/bin/spmvtop" -addr "$ADDR" -once >"$TMP/spmvtop.out"
grep -q "per-rank utilization" "$TMP/spmvtop.out" || {
    echo "spmvtop -once did not render the live view:" >&2
    cat "$TMP/spmvtop.out" >&2
    kill "$SCALING_PID" 2>/dev/null || true
    exit 1
}
kill "$SCALING_PID" 2>/dev/null || true
wait "$SCALING_PID" 2>/dev/null || true

echo "== spmvd chaos swarm smoke (concurrent tenants, injected ECC) =="
# The synthetic client swarm hammers a live server over HTTP with
# concurrent tenants, killed clients and tight deadlines while device 0
# takes an uncorrectable ECC error; spmvd exits non-zero if any
# returned digest differs from the fault-free reference, if an
# unexpected error surfaces, or if nothing succeeds.
go build -o "$TMP/bin/" ./cmd/spmvd
"$TMP/bin/spmvd" -swarm -swarm-clients 8 -swarm-requests 4 -devices 2 \
    -faults 'ecc rank=0 launch=5' >"$TMP/swarm.out" 2>&1 || {
    echo "spmvd swarm smoke failed:" >&2
    cat "$TMP/swarm.out" >&2
    exit 1
}

echo "== spmvd lifecycle smoke (upload, ECC downgrade digests, SIGTERM drain) =="
# Two live servers — one with an ECC fault on device 0's second
# launch, one clean — serve the same uploaded matrix. Solves for the
# same seeds must digest bit-identically (the degradation ladder must
# never change results), and SIGTERM must drain both to exit 0.
# max_iter bounds the CG run (HMEp is not SPD, so CG won't converge):
# a fixed iteration count is deterministic on both sides, where a
# deadline checkpoint would cut at a wall-clock-dependent iteration.
"$TMP/bin/spmvd" -addr 127.0.0.1:0 -devices 2 -drain-grace 10s \
    -faults 'ecc rank=0 launch=2' >"$TMP/svc-ecc.out" 2>&1 &
ECC_PID=$!
"$TMP/bin/spmvd" -addr 127.0.0.1:0 -devices 2 -drain-grace 10s \
    >"$TMP/svc-ok.out" 2>&1 &
OK_PID=$!
for side in ecc ok; do
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's|^spmvd listening on http://\(.*\)$|\1|p' "$TMP/svc-$side.out")
        [ -n "$ADDR" ] && break
        i=$((i + 1))
        sleep 0.2
    done
    if [ -z "$ADDR" ]; then
        echo "spmvd ($side) never bound its address:" >&2
        cat "$TMP/svc-$side.out" >&2
        kill "$ECC_PID" "$OK_PID" 2>/dev/null || true
        exit 1
    fi
    eval "ADDR_$side=\$ADDR"
done
for side in ecc ok; do
    eval "ADDR=\$ADDR_$side"
    ID=$(curl -s -X POST -H 'X-Tenant: check' --data-binary @"$TMP/m.mtx" \
        "http://$ADDR/v1/matrices?name=smoke" |
        sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')
    if [ -z "$ID" ]; then
        echo "spmvd ($side) upload returned no matrix id" >&2
        kill "$ECC_PID" "$OK_PID" 2>/dev/null || true
        exit 1
    fi
    CURL_PIDS=""
    for s in 1 2 3 4; do
        curl -s -X POST -H 'X-Tenant: check' \
            -d "{\"matrix\":\"$ID\",\"seed\":$s,\"tol\":1e-8,\"max_iter\":50}" \
            "http://$ADDR/v1/solve" >"$TMP/solve-$side-$s.json" &
        CURL_PIDS="$CURL_PIDS $!"
    done
    wait $CURL_PIDS
    grep -h '"digest"' "$TMP"/solve-$side-*.json | sort >"$TMP/digests-$side"
    [ -s "$TMP/digests-$side" ] || {
        echo "spmvd ($side) solves returned no digests" >&2
        kill "$ECC_PID" "$OK_PID" 2>/dev/null || true
        exit 1
    }
done
cmp "$TMP/digests-ecc" "$TMP/digests-ok" || {
    echo "spmvd digests differ across the ECC device->host downgrade" >&2
    kill "$ECC_PID" "$OK_PID" 2>/dev/null || true
    exit 1
}
kill -TERM "$ECC_PID" "$OK_PID"
wait "$ECC_PID" || {
    echo "spmvd (ecc) did not exit 0 on SIGTERM:" >&2
    cat "$TMP/svc-ecc.out" >&2
    exit 1
}
wait "$OK_PID" || {
    echo "spmvd (ok) did not exit 0 on SIGTERM:" >&2
    cat "$TMP/svc-ok.out" >&2
    exit 1
}
grep -q 'drained in' "$TMP/svc-ecc.out" && grep -q 'drained in' "$TMP/svc-ok.out" || {
    echo "spmvd did not report a drain on SIGTERM" >&2
    exit 1
}

echo "== regression-gate self-diff (perfreport) =="
# The simulator is deterministic, so two identical runs must produce
# byte-comparable reports and the gate must find zero regressions.
go run ./cmd/perfreport -ranks 4 -scale 0.02 -modes task -json -o "$TMP/a.json" >/dev/null
go run ./cmd/perfreport -ranks 4 -scale 0.02 -modes task -json -o "$TMP/b.json" >/dev/null
go run ./cmd/perfreport diff -tol 0.02 "$TMP/a.json" "$TMP/b.json"

echo "== labeled-profile smoke (spmvbench -cpuprofile, perfreport -profile) =="
# A short host benchmark run under the CPU profiler must come back
# with >= 90% of its samples attributed to known phase labels — a hot
# path losing its pprof label shows up here before it muddies any real
# profile.
go run ./cmd/spmvbench -hostbench -host-kernel blocked -host-iters 2 \
    -scale 0.05 -cpuprofile "$TMP/cpu.pprof" -memprofile "$TMP/mem.pprof" \
    >/dev/null
go run ./cmd/perfreport -profile "$TMP/cpu.pprof" -check-attributed 0.90
go run ./cmd/perfreport -profile "$TMP/mem.pprof" >/dev/null

echo "all checks passed"
