#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
#       one run; the last line of standard output is the result object.
#       This is the form BENCHMARK.json's command takes.
#   bash benchmark/run.sh [--sets <k>] [--seeds "1 2 3"] [--seconds <s>] [--traced]
#       every workload once per seed (and once more traced with --traced),
#       reports under benchmark/.build/sets/<set>/; with --sets 2 the two
#       sets are compared, which is the benchmark's own repeatability check.
#   bash benchmark/run.sh compare <a.json|dir> <b.json|dir>
#   bash benchmark/run.sh test
#       the harness's own tests (seed determinism, a short smoke of each
#       workload), with and without the layers package.
#
# It builds the harness from source into benchmark/.build/ first. Everything
# it writes — binary, Go build cache, profiles, reports — stays under that
# directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"
bin="$build/bench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

build_harness() {
	# Rebuild only when a source file is newer than the binary: the driver
	# calls this script a hundred times per commit.
	if [[ -x "$bin" ]] && [[ -z "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]]; then
		return
	fi
	# The layers package (probes, tracedBus) imports the program's internal
	# packages and sits behind the "bench" tag. If a change to the program
	# has broken it, fall back to the end-to-end driver alone, which imports
	# only the root package; the traced run then reports those metrics absent.
	if ! (cd "$here" && go build -tags bench -o "$bin" . 2>"$build/build.err"); then
		echo "benchmark: warning: the layers package does not build; per-layer probes and spans will be absent:" >&2
		cat "$build/build.err" >&2
		(cd "$here" && go build -o "$bin" .)
	fi
}

case "${1:-}" in
test)
	cd "$here"
	go vet -tags bench ./... && go test -tags bench -count=1 ./... && go vet ./... && go test -count=1 -short ./...
	exit
	;;
compare)
	build_harness
	cd "$root"
	exec "$bin" "$@"
	;;
--workload | -workload | --workload=* | -workload=*)
	build_harness
	cd "$root"
	exec "$bin" "$@"
	;;
esac

sets=1 seeds="1" seconds=16 traced=0
while [[ $# -gt 0 ]]; do
	case "$1" in
	--sets) sets="$2" && shift ;;
	--seeds) seeds="$2" && shift ;;
	--seconds) seconds="$2" && shift ;;
	--traced) traced=1 ;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift
done

build_harness
cd "$root"
status=0
for set in $(seq 1 "$sets"); do
	dir="$build/sets/$set"
	rm -rf "$dir" && mkdir -p "$dir"
	for seed in $seeds; do
		for wl in match-wide write-stream subscribe-churn fanout-topk; do
			"$bin" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 --out "$dir/$wl-$seed.json" >/dev/null || status=$?
			if [[ "$traced" == 1 ]]; then
				"$bin" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 1 --out "$dir/$wl-$seed-traced.json" >/dev/null || status=$?
			fi
		done
	done
done
if [[ "$sets" -ge 2 ]]; then
	"$bin" compare "$build/sets/1" "$build/sets/2" || status=$?
fi
exit "$status"
