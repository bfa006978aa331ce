#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the root. A tree without the learn2scale module next to
# perfbench/ fails to build, and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --rev "$rev" "$@"
