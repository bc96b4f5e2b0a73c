#!/usr/bin/env bash
# Builds bench/dnsbench (build cache and binaries under bench/.build) and
# runs it from the repository root with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
b=$PWD/bench/.build
mkdir -p "$b/tmp"
export GOCACHE=$b/gocache GOMODCACHE=$b/gomod GOTMPDIR=$b/tmp GOTOOLCHAIN=local
go build -C bench -o "$b/bin/dnsbench" ./dnsbench
exec "$b/bin/dnsbench" "$@"
