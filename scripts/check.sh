#!/bin/sh
# Repository health check: vet, build, the full test suite, vet and
# short tests of the separate bench/ module (root ./... never builds
# it, so an API break there would otherwise surface only in the
# benchmark pipeline), and a race
# run over the concurrency-heavy packages (virtual-time fabric, the
# MPI-like layer, the distributed spMVM engine, fault plans, the
# fault-tolerant solver, telemetry, the GPU worker pool — the gpu
# tests exercise Workers>1 and concurrent plan-cache lookups — and the
# parallel ingest-and-convert pipeline, and the host-kernel layer with
# its worker pools), a seeded chaos smoke scenario, a conversion
# determinism smoke (matinfo at 1 vs 4 workers must produce
# byte-identical output), a host-kernel byte-diff smoke (spmvbench
# -hostbench digests must be identical for naive, blocked, sell and
# cmrs), and a format-tuning smoke (spmvbench -format auto must sweep,
# digest-match naive on every matrix, surface its winner through
# matinfo -recommend and perfreport -tune, and answer the second run
# entirely from the tuning-DB cache). The chaos smoke also verifies the
# flight recorder dumps a perfreport-readable incident trace on the
# injected crash, and an endpoint smoke asserts a held scaling run
# serves /metrics, /healthz, /spans, /health, /dashboard and
# /trends.json with non-empty 200 bodies and that spmvtop renders a
# frame against it. A labeled-profile smoke requires >= 90% of CPU
# samples to carry a known phase label, and a trend smoke gates the
# checked-in BENCH_PR*.json trajectory plus a fresh run ledger on
# sustained cross-run regressions. The spmvd smoke runs the chaos
# client swarm against a live multi-tenant server, then starts two
# servers (one with an injected ECC fault, one clean), uploads a
# matrix over the wire, fires concurrent solves at both, requires the
# solution digests to be bit-identical across the device→host
# downgrade, and requires both servers to drain cleanly on SIGTERM
# with exit 0.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== go vet =="
go vet ./...

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
    ./internal/flight/... ./internal/health/... \
    ./internal/service/...

echo "== go test -race (gpu worker pool, Workers>1) =="
go test -race ./internal/gpu/...

echo "== go test -race (ingest-and-convert pipeline) =="
go test -race ./internal/matrix/... ./internal/core/... \
    ./internal/formats/... ./internal/par/... ./internal/convert/...

echo "== go test -race (host kernels, worker pools, tuner) =="
go test -race ./internal/hostkernel/... ./internal/cpu/... \
    ./internal/tuner/...

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
# bit-identical to the naive CSR reference (the MATCH digest lines),
# matinfo -recommend and perfreport -tune must surface the persisted
# winner, and a second bench run must answer every matrix from the DB
# without re-sweeping.
go run ./cmd/spmvbench -format auto -scale 0.02 -host-iters 1 \
    -tuning-db "$TMP/tuning.jsonl" >"$TMP/tune1.out"
grep '^digest ' "$TMP/tune1.out" | grep -v ' MATCH ' && {
    echo "a tuned pick diverged from the naive digest:" >&2
    cat "$TMP/tune1.out" >&2
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
for p in /metrics /metrics.json /healthz /spans /health /dashboard /trends.json; do
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
scripts/regress.sh "$TMP/a.json" "$TMP/b.json"

echo "== labeled-profile smoke (spmvbench -cpuprofile, perfreport -profile) =="
# A short host benchmark run under the CPU profiler must come back
# with >= 90% of its samples attributed to known phase labels — a hot
# path losing its pprof label shows up here before it muddies any real
# profile. The run also appends to a fresh ledger (twice, so the trend
# smoke below has a sustained tail to look at).
go run ./cmd/spmvbench -hostbench -host-kernel blocked -host-iters 2 \
    -scale 0.05 -cpuprofile "$TMP/cpu.pprof" -memprofile "$TMP/mem.pprof" \
    -ledger "$TMP/ledger.jsonl" >/dev/null
go run ./cmd/spmvbench -hostbench -host-kernel blocked -host-iters 2 \
    -scale 0.05 -ledger "$TMP/ledger.jsonl" >/dev/null
go run ./cmd/perfreport -profile "$TMP/cpu.pprof" -check-attributed 0.90
go run ./cmd/perfreport -profile "$TMP/mem.pprof" >/dev/null

echo "== cross-run trend gate (perfreport -trend over BENCH_PR*.json + ledger) =="
# The checked-in PR trajectory plus the two fresh ledger entries must
# pass the sustained-regression gate; the ungated report renders too.
LEDGER="$TMP/ledger.jsonl" scripts/regress.sh trend
go run ./cmd/perfreport -trend -ledger "$TMP/ledger.jsonl" \
    $(ls BENCH_PR*.json | grep -v '\.metrics\.json$' | sort -V) >/dev/null

echo "all checks passed"
