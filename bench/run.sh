#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it
# from the root. Everything the Go toolchain writes (build cache, module
# cache, temp files, telemetry) is redirected under .bench_build/, so a run
# touches nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -C "$root/bench" -o "$out/gignite-bench" .
cd "$root"
exec "$out/gignite-bench" "$@"
