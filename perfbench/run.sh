#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it with the
# given arguments (see README.md). Everything it writes - Go build cache,
# binary, snapshot stores, span files - stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
