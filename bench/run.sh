#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from any working directory. Everything the build writes (compiled
# packages, temporary files, the binary) stays under bench/.build, so a run
# reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/parcfl-bench" .
exec "$build/parcfl-bench" "$@"
