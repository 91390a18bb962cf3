#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload telco-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ at the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
