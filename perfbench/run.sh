#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fig15-warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, temp files, WAL directories, span dumps) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$out/tlcperf" .
exec "$out/tlcperf" -out "$out" "$@"
