#!/usr/bin/env bash
# Builds radiod and the benchmark program from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload presets-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload all --seed 100 --seconds 20
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/radiod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a dualradio checkout" >&2
	exit 2
fi

target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target="$root/$target" ;;
esac
out="$target/perfbench"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"
# Keep the go command's cache, temporary files and telemetry inside the
# checkout, and ignore any user-level go env settings.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-trimpath

go build -o "$out/radiod" ./cmd/radiod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -radiod "$out/radiod" -work "$out" "$@"
