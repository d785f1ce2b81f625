#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# named by .gitignore) and runs it with the arguments given, from the
# repository root:
#
#   bash bench/run.sh --workload scan --seed 2018 --seconds 24 --trace 0
#
# The Go build cache lives in .bench_build/ too, so nothing outside the
# checkout is written; the first build is therefore a cold one.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache"
(
	cd "$here"
	GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/bench" .
)
cd "$root"
exec "$out/bench" "$@"
