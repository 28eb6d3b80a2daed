# uexc build/verify entry points.
#
# `make check` is the tier-1 verification gate: static checks, the full
# test suite under the race detector (the root module and the bench/
# harness module; the serving gauntlets — byte-identity, debug
# sessions, the mixed burst, and the chaos kill/restart runs at full
# scale — are tests in internal/server), 30-seed smoke runs of
# both sweeps (the fault-injection campaign and the difftest oracle)
# across all three delivery modes, each cross-checked between execution
# tiers, the race-enabled soak smoke, and the coverage ratchet. Each
# check runs once.
#
# Performance is measured in one place: `bash bench/run.sh` (see
# bench/README.md). The root bench_test.go micro-benchmarks
# (`go test -run '^$' -bench . .`) compare the execution tiers as
# sub-benchmarks and write no record.

GO ?= go

# Statement-coverage ratchet over internal/: `make cover` fails if the
# suite's total coverage drops below this floor. Raise it when coverage
# durably improves; never lower it to make a change pass.
COVER_MIN ?= 86.0

.PHONY: all build test vet check cover campaign soak soak-smoke engine-crosscheck fuzz clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 gate. The smoke sweeps run inside engine-crosscheck, through
# the parallel engine (four workers); their output is byte-identical to
# -parallel 1 by the deterministic-merge contract (internal/parallel,
# DESIGN.md §8), and a failing sweep fails its jit leg and so the gate.
check: vet build
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test -race -short ./...
	$(MAKE) engine-crosscheck
	$(MAKE) soak-smoke
	$(MAKE) cover

# Execution-tier cross-check: each 30-seed sweep (the fault campaign
# and the difftest oracle) under the JIT and under the pure interpreter
# must pass and produce byte-identical summaries — the executable
# observational-identity contract of cpu/translate.go. The difftest
# leg at -parallel 1 runs every seed on one pooled machine, so each
# program loads over the last one's translated blocks and the JIT's
# revalidation against source words (cpu/block.go) is exercised. The
# campaign leg at -parallel 1 does the same under the armed injector,
# where user blocks run up to its quiet horizon, and reuses the one
# machine's watchdog across every checkout.
engine-crosscheck:
	for run in "faultcampaign 4" "faultcampaign 1" "difftest 4" "difftest 1"; do \
		set -- $$run; \
		$(GO) run ./cmd/uexc-bench -$$1 -seeds 30 -parallel $$2 -engine jit > .crosscheck-jit.out && \
		$(GO) run ./cmd/uexc-bench -$$1 -seeds 30 -parallel $$2 -engine interp > .crosscheck-interp.out && \
		cmp .crosscheck-jit.out .crosscheck-interp.out || exit 1; \
	done
	rm -f .crosscheck-jit.out .crosscheck-interp.out

# Coverage ratchet: reruns the suite with statement coverage over the
# internal packages and enforces the COVER_MIN floor.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/... ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $${total}% (floor: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= m+0) }' || \
		{ echo "coverage $${total}% is below the $(COVER_MIN)% ratchet"; exit 1; }

# Full acceptance campaign (the 100-seed run documented in DESIGN.md),
# sharded over all CPUs.
campaign:
	$(GO) run ./cmd/uexc-bench -faultcampaign -seeds 100 -parallel 0

# Seed-space triage sweep (DESIGN.md §14): both campaign engines over
# seeds 0..10,000 with typed verdicts, each merged shard journaled to
# the §12 durable job store under .soak/ — kill it at any point and
# rerun; it resumes from the journal byte-identically. Fails on any unclassified
# (engine-bug) verdict.
soak:
	$(GO) run ./cmd/uexc-bench -soak -seeds 10000 -parallel 0 -soakdir .soak

# Race-enabled soak smoke over seeds 0..2,500 — covers the three
# historically bad seeds (820, 2223, 2227) — part of the tier-1 gate.
soak-smoke:
	$(GO) run -race ./cmd/uexc-bench -soak -seeds 2500 -parallel 0

# Short coverage-guided fuzzing burst on the decoder, the assembler,
# the sweep merge frontier (every arrival order local workers can
# produce, from every resume point, with a failing merge), the
# cross-mode oracle (arbitrary progen seeds, with and without the SMC
# stanza), and the GC simulator's per-barrier ledgers (arbitrary
# mutator traces, one shared heap against one heap per barrier).
fuzz:
	$(GO) test ./internal/arch/ -fuzz FuzzDecodeEncode -fuzztime 30s
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime 30s
	$(GO) test ./internal/parallel/ -fuzz FuzzFrontier -fuzztime 30s
	$(GO) test ./internal/difftest/ -fuzz FuzzDiffModes -fuzztime 30s
	$(GO) test ./internal/apps/gcsim/ -fuzz FuzzLedgers -fuzztime 30s

clean:
	$(GO) clean ./...
