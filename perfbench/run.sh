#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload fig75 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ in the current directory, so the
# benchmark writes nothing outside the tree it was started in.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
