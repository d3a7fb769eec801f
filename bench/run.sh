#!/usr/bin/env bash
# Builds and runs the served-path benchmark from the repository root:
#
#   bash bench/run.sh --workload ingest-routed --seed 1 --seconds 10 --trace 0
#
# Everything the toolchain and the benchmark write (build cache, binaries,
# daemon data directories, trace files) stays under .bench_build/ in the
# checkout. Flags are passed through to the benchmark binary; see
# bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its env file and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
