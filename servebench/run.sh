#!/usr/bin/env bash
# Builds the serve-path benchmark from the checkout it runs in and
# executes it with the given arguments. Everything the build and the run
# leave behind (Go build cache, binary, state directories, result files)
# stays under .bench_build in the checkout.
#
#   bash servebench/run.sh --workload ingest-small --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --compare A.json B.json
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" TMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
