#!/usr/bin/env bash
# Driver entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It is `go run ./bench` with everything the Go toolchain writes — build
# cache, temp files, its per-user config — pointed into .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$root"
# Without the program there is nothing to build: say so before the
# toolchain starts anything.
if [ ! -f go.mod ] || [ ! -d cmd/ripki-sweep ] || [ ! -d cmd/ripki-served ]; then
	echo "bench/run.sh: $root does not hold the ripki module (go.mod, cmd/ripki-sweep, cmd/ripki-served)" >&2
	exit 2
fi
# A fresh config dir has no upload token, so the first go command in it
# would fork the toolchain's detached telemetry child, which outlives the
# run. Mode "off" keeps the go command from starting it or writing counters.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/ripki-bench" ./bench
exec "$build/bin/ripki-bench" "$@"
