#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload uniform --seed 1 --seconds 50 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# own config and telemetry files) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
(
	cd "$here"
	export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config GOPATH=$build/home/go \
		GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOWORK=off GOTOOLCHAIN=local
	go build -o "$build/perfbench.bin" .
) >&2
exec "$build/perfbench.bin" "$@"
