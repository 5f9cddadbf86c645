#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serving-ssd --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the build's temporary files and the Go
# tool's own config and telemetry files stay inside the checkout, under
# $CARGO_TARGET_DIR if set, else .bench_build. The module has no
# dependencies to download.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
