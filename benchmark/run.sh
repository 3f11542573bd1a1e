#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare <result dir A> <result dir B>
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the go command's caches and settings inside the checkout, and
# never let it download a toolchain or module.
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
mkdir -p "$HOME"
(cd benchmark && go build -o "$out/fmbench" .)
exec "$out/fmbench" "$@"
