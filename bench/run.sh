#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash bench/run.sh --workload serve --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary,
# temporary files and result files all stay under .bench_build/, so a
# run reads and writes nothing outside the checkout. The build fails,
# and the script exits non-zero without printing a result, when the
# module the benchmark measures is not next to bench/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the go command's own config and telemetry files.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/pjds-bench" .)
exec "$build/pjds-bench" "$@"
