#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload batch|cluster|session --seed N --seconds S --trace 0|1
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, temporary files, unix sockets,
# the binary, the per-run JSON reports and the Chrome traces.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
abs="$(cd "$out" && pwd)"

export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" GOTMPDIR="$abs/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off
# The go command's telemetry and config files live under the user config dir.
export XDG_CONFIG_HOME="$abs/config"

(cd perfbench && go build -o "$abs/perfbench" .)

# Relative on purpose: unix socket paths are limited to ~100 bytes.
export TMPDIR="$out/tmp"
exec "$abs/perfbench" --out "$out" "$@"
