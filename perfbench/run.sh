#!/usr/bin/env bash
# Builds the benchmark and navarchos-serve from the checkout it sits in,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-bulk --seed 1 --seconds 15 --trace 0
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg"
export XDG_CACHE_HOME="$build/xdg"
export GOTOOLCHAIN=local
export GOWORK=off

# Go 1.23 and later start a detached telemetry process from the first go
# command run under a fresh config directory, which would outlive this
# script. Switching telemetry off first starts none; older toolchains
# have no telemetry and no such subcommand.
go telemetry off >/dev/null 2>&1 || true

go build -o "$build/navarchos-serve" ./cmd/navarchos-serve
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -serve "$build/navarchos-serve" -workdir "$build/tmp" "$@"
