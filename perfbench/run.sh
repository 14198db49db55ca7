#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload gt-suite --seed 1 --seconds 28 --trace 0
#
# Everything the build writes (the binary, the Go build cache and its
# scratch files, Go's telemetry and config) stays under .bench_build in
# the checkout; the benchmark writes its run records and spans to
# .bench_out. The build needs no network and no C compiler: the
# benchmark module requires only the repository's own module, through a
# replace directive.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
unset GOFLAGS
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
