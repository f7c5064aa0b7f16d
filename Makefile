# Tier-1 gate: everything a change must pass before it lands.
# `make check` is the canonical entry point (vet + build + race-enabled
# tests); CI and reviewers run exactly this. The race gate doubles as the
# determinism gate for the parallel experiment runner.

GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: check vet staticcheck build test race bench

check: vet staticcheck build race

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local dev
# may not have it, and the gate must not demand network access to pass).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench tracks the perf trajectory per PR: full benchmark run, results
# archived as BENCH_<date>.json (raw benchstat-compatible text kept in the
# record's "raw" field — `jq -r .raw BENCH_<date>.json | benchstat /dev/stdin`).
# The two hot-path benchmarks CI gates against this record run six times,
# so the gate (benchjson -diff) compares medians, not single samples.
GATED_BENCH := BenchmarkEngineEventThroughput|BenchmarkSchedulerPickEASY

bench:
	{ $(GO) test -bench=. -skip '$(GATED_BENCH)' -benchmem -count=1 -run '^$$' . ./internal/service && \
	  $(GO) test -bench='$(GATED_BENCH)' -benchmem -count=6 -run '^$$' . ; } | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json
