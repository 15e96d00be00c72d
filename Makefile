# Power-Efficient Multiple Producer-Consumer — reproduction harness.

GO ?= go

.PHONY: all build test race verify perfbench-check chaos chaos-e2e lint bench fuzz cluster-smoke experiments figures examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Repo-wide flake sweep: every package under the race detector,
# RACE_COUNT times over. Grow RACE_COUNT for a longer hunt. The timeout
# is per package binary, and internal/exp alone needs about a minute
# per pass under -race, beyond go test's 10m default at these counts.
RACE_COUNT ?= 10
race:
	$(GO) test -race -count=$(RACE_COUNT) -timeout 60m ./...

# CI entry point: vet, build, full race-enabled test suite. Includes
# the pcd daemon smoke test (start, ingest over HTTP, scrape /metrics,
# SIGTERM, clean exit) via ./cmd/pcd's tests.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go test ./...` at the root never compiles it. Vet it and run its
# short tests so a root API change cannot break the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Fault-tolerance suite under the race detector: chaos isolation
# (panicking + stalling pairs must not delay healthy ones), breaker
# open/probe/close lifecycle, quarantine fail-fast, and conservation
# through final drains and mid-drain-panic migrations.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Quarantine|Breaker' ./...

# Black-box chaos oracle over real pcd processes (build-tagged so plain
# `go test ./...` stays fast): checked-in regression seeds replay first,
# then one seeded run of every failure class — kill -9 + restart,
# SIGTERM mid-burst, asymmetric TCP partition, breaker-tripping
# handlers, fleet-placement churn, flash-crowd shedding, noisy-tenant
# quota floods, SIGHUP registry reloads mid-burst (rotation + corrupt
# file) — each verdicted against the fleet conservation ledger. A
# failing run prints the exact CHAOS_SCENARIO/CHAOS_SEED command to
# replay it.
chaos-e2e:
	$(GO) test -tags chaos -timeout 15m -v ./test/e2e

# Static analysis beyond vet. Skips (with a notice) when staticcheck is
# not on PATH so offline checkouts still build; CI installs it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# One benchmark per paper figure/table, reduced scale, plus the
# machine-readable headline numbers (FIG9/FIG10 wakeups/s, power, p99),
# the power-cap sweep (figure powercap: throttle ladder vs budget), the
# live Put-path observability overhead (figure putpath, now with
# allocs/op), and the pinned SPSC ping-pong recipes (figure pingpong)
# written to BENCH_PBPL.json for run-over-run diffing. The alloc gate
# fails the target if any hot-path benchmark reports allocs/op > 0; the
# grep fails it if the powercap series drops out of the JSON document.
bench:
	$(GO) test -bench=. -benchmem ./...
	bash scripts/alloc_gate.sh
	$(GO) run ./cmd/pcbench -json -duration 2s -reps 2 -putbench
	grep -q '"figure": "powercap"' BENCH_PBPL.json

# Coverage-guided fuzzing smoke: a short budget per target on top of
# the checked-in seed corpora (testdata/fuzz). Grow FUZZTIME locally
# for a real exploration session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseCLF -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzTimelineJSON -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/cluster

# End-to-end cluster smoke over real processes: build pcd + pcload,
# boot a two-node fleet on loopback, replay a phase-shifted trace
# through both entry nodes, scrape /statusz, SIGTERM-drain both clean.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Paper-scale regeneration of every table (≈ minutes).
experiments:
	$(GO) run ./cmd/pcbench -fig all -duration 50s -reps 3

# The Figure 6 wakeup-timeline rendering.
figures:
	$(GO) run ./cmd/pcbench -fig 6 -duration 10s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/monitor
	$(GO) run ./examples/router
	$(GO) run ./examples/webserver

clean:
	$(GO) clean ./...
