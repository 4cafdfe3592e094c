#!/usr/bin/env bash
# Serving benchmark entry point. Run from the root of an rlpm checkout:
#
#   bash perfbench/run.sh --workload direct-bin --seed 1 --seconds 10 --trace 0
#
# Builds pmserve, pmrouter and the generator from the checkout's sources
# into .bench_build/ (Go caches included, so nothing is written outside
# the checkout), then runs the generator. The last line of standard
# output is the JSON verdict; build output goes to standard error.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pmserve || ! -d internal/serve ]]; then
	echo "perfbench: run from the root of an rlpm checkout (no go.mod, cmd/pmserve or internal/serve here)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home" "$build/run"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The generator imports the serving packages it measures, which only code
# inside the rlpm module may do. An overlay places its sources at a
# virtual path inside the module, and an alternate module file resolves
# the benchmark's own module (perfbench) from this directory.
cat >"$build/bench.mod" <<MOD
module rlpm

go 1.22

require perfbench v0.0.0

replace perfbench => ./perfbench
MOD
{
	printf '{"Replace":{'
	sep=
	for f in "$root"/perfbench/gen/*.go; do
		case "$f" in *_test.go) continue ;; esac
		printf '%s"%s":"%s"' "$sep" "$root/perfbench_gen/$(basename "$f")" "$f"
		sep=,
	done
	printf '}}\n'
} >"$build/overlay.json"

go build -o "$build/bin/pmserve" ./cmd/pmserve >&2
go build -o "$build/bin/pmrouter" ./cmd/pmrouter >&2
go build -modfile="$build/bench.mod" -overlay="$build/overlay.json" -tags rlpmbench \
	-o "$build/bin/perfbench-gen" ./perfbench_gen >&2

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

args=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload | --seed | --seconds | --trace)
		[[ $# -ge 2 ]] || { echo "perfbench: $1 needs a value" >&2; exit 2; }
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "perfbench: unknown argument $1" >&2
		exit 2
		;;
	esac
done

PERFBENCH_COMMIT="$commit" exec "$build/bin/perfbench-gen" "${args[@]}" \
	-bindir "$build/bin" -workdir "$build/run"
