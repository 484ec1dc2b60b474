#!/usr/bin/env bash
# Builds the cold-start abcsim benchmark and runs it from the repository
# root. All arguments are passed through, e.g.
#
#	bash bench/run.sh                                   # every workload, traced pass, table
#	bash bench/run.sh --workload ring --seed 3 --seconds 20 --trace 0
#	bash bench/run.sh -out report.json
#	bash bench/run.sh -compare base.json head.json
#
# The Go build cache, module cache and compiler temporary files live under
# .bench_build, so building and running write nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -root "$root" "$@"
