#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload <suite|hollow-10k|service> --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh diff BASE.layers.json NEW.layers.json
#   bash perfbench/run.sh record
#
# Everything the build and the runs write (Go build cache, binary, temp
# dirs, journals, traced-run outputs, the go command's own config and
# telemetry files) stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

# The benchmark is its own module (perfbench/go.mod) that replaces
# epajsrm with the enclosing checkout, so it builds the program under
# test from source. Build output goes to stderr: stdout carries only
# the benchmark's report.
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
