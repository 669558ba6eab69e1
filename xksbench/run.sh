#!/usr/bin/env bash
# Builds xkserver and the benchmark driver from the checkout this script is
# run in (the repository root), then runs the driver with the given flags:
#
#   bash xksbench/run.sh --workload store-topk-miss --seed 7 --seconds 45 --trace 0
#
# Every build output, Go cache and run directory stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/xkserver" ]; then
	echo "xksbench: run from the repository root (no go.mod / cmd/xkserver here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off TMPDIR="$out/tmp"

go build -o "$out/xkserver" ./cmd/xkserver
(cd "$root/xksbench" && go build -o "$out/xksbench" .)
exec "$out/xksbench" -server "$out/xkserver" -work "$out" "$@"
