#!/usr/bin/env bash
# Builds and runs the loopback benchmark of cmd/sessiond. Run it from the
# repository root:
#
#   bash _loopbench/run.sh --workload ot-group4 --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and log stays under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
mkdir -p "$GOTMPDIR"
(cd "$root/_loopbench" && go build -o "$out/loopbench/loopbench" .)
exec "$out/loopbench/loopbench" --root "$root" "$@"
