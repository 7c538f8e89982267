#!/usr/bin/env bash
# Builds the benchmark and the odcfpd daemon from the checkout's
# sources into .bench_build/ (Go build cache included), then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload single-mature --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Nothing is read or written outside the
# checkout apart from the Go toolchain itself.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/odcfpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/odcfpd and perfbench/ are required)" >&2
	exit 2
fi
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
# The go command's config (and its local telemetry counters) live under
# the user config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p .bench_build/bin
go build -o .bench_build/bin/odcfpd ./cmd/odcfpd
(cd perfbench && go build -o ../.bench_build/bin/perfbench .)
exec .bench_build/bin/perfbench -odcfpd .bench_build/bin/odcfpd "$@"
