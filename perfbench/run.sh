#!/usr/bin/env bash
# Builds the benchmark and fracserve from the checkout it is run in, then
# runs one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload train-expr --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and the per-run work directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
mkdir -p "$out/bin" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$out/bin/fracserve" ./cmd/fracserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -fracserve "$out/bin/fracserve" -work "$out/work" "$@"
