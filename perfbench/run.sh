#!/usr/bin/env bash
# Builds the benchmark and the server it drives from this checkout's
# sources, then runs it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the Go command's own config
# live under .bench_build at the checkout root, so nothing outside the
# checkout is written and nothing but the Go toolchain is read.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
