#!/usr/bin/env bash
# Builds campaignbench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash campaignbench/run.sh --workload ma-window --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ at the checkout root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
if [ -e "$root/.git" ]; then
	CAMPAIGNBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	export CAMPAIGNBENCH_COMMIT
fi
(cd "$root/campaignbench" && go build -o "$build/campaignbench" .)
exec "$build/campaignbench" "$@"
