#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh repeat --workload spec-batch --runs 10
#
# Run from the repository root. Every build artefact, the Go build cache
# and Go's own config and telemetry files stay under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
