#!/usr/bin/env bash
# Builds mutps-server and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the root of the checkout:
#
#   bash wirebench/run.sh --workload hot-read --seed 1 --seconds 16 --trace 0
#   bash wirebench/run.sh compare base.jsonl candidate.jsonl
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout ($CARGO_TARGET_DIR is not used: Go).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mutps-server" ]; then
	echo "wirebench: run from the root of a mutps checkout (no go.mod or cmd/mutps-server here)" >&2
	exit 2
fi
go build -o "$out/mutps-server" ./cmd/mutps-server
(cd "$root/wirebench" && go build -o "$out/wirebench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/wirebench" "$@"
fi
exec "$out/wirebench" -root "$root" -server "$out/mutps-server" "$@"
