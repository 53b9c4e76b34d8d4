#!/usr/bin/env bash
# Builds the mclg benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <mono-dense|windowed-dense|served-mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build output, Go cache and scratch
# file stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/trace" "$@"
