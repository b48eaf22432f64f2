#!/usr/bin/env bash
# Builds mrmbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash mrmbench/run.sh --workload fleet-hbm --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes to
# .bench_build/ at the repository root; build output goes to stderr so the
# benchmark's result stays the last line of stdout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/mrmbench" .) >&2
exec "$out/mrmbench" "$@"
