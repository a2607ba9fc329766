#!/usr/bin/env bash
# Builds e2ebench from source and runs it with the given arguments, from
# the repository root:
#
#   bash e2ebench/run.sh --workload counter-http --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the Go
# command's own state, the binary) stays under .bench_build in the current
# directory. Outside a full checkout the build fails and so does the run.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
(
	cd "$(dirname "$0")"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= go build -o "$out/e2ebench.$$" .
)
mv -f "$out/e2ebench.$$" "$out/e2ebench"
exec "$out/e2ebench" "$@"
