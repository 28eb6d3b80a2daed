# uexc build/verify entry points.
#
# `make check` is the tier-1 verification gate: static checks, the full
# test suite under the race detector (the root module and the bench/
# harness module), and 30-seed smoke runs of both sweeps (the
# fault-injection campaign and the difftest oracle) across all three
# delivery modes, each cross-checked between execution tiers.
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

.PHONY: all build test vet check cover campaign soak soak-smoke serve-smoke chaos-smoke snapshot-smoke engine-crosscheck fleet-smoke fuzz clean

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
	$(MAKE) snapshot-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) fleet-smoke
	$(MAKE) cover

# Serving smoke: spins a race-enabled uexc-serve on an ephemeral port
# and runs the end-to-end self-test — CLI byte-identity of streamed
# jobs, the debug-session gauntlet, a mixed 24-job burst from 8 clients
# with exact /metrics accounting, and a graceful SIGTERM-style drain.
serve-smoke:
	$(GO) run -race ./cmd/uexc-serve -selftest

# Snapshot/fork/debug-session gauntlet (DESIGN.md §16), race-enabled
# and cache-busted: CoW snapshot round-trips at every layer (mem, TLB,
# CPU, kernel, machine), the engine-toggle torture with restore points
# and post-restore SMC, pooled-vs-booted byte-identity under all three
# engines, record-replay exactness, and the virtual-breakpoint debug
# sessions end to end (including the kernel trapframe-page watch).
snapshot-smoke:
	$(GO) test -race -count=1 ./internal/snapshot ./internal/debug
	$(GO) test -race -count=1 -run 'Snapshot|Fork|Restore|PoolWarm|WarmPool|DefaultEngine|SMCAfterFork|TimeTravel|Debug|Session' \
		./internal/mem ./internal/tlb ./internal/cpu ./internal/core ./internal/difftest ./internal/server

# Crash-tolerance gauntlet: a 30-seed campaign through a journal-backed
# race-enabled server that is killed and restarted 3 times mid-run
# (plus injected worker panics, shard stalls, slow fsyncs, and client
# disconnects); the survivor's stream must be byte-identical to an
# undisturbed run and /metrics accounting exact (DESIGN.md §12,
# EXPERIMENTS.md).
chaos-smoke:
	$(GO) run -race ./cmd/uexc-serve -chaos -chaos-seeds 30 -chaos-kills 3

# Distributed gauntlet: a race-enabled coordinator with a durable
# journal fans a 30-seed campaign out to two in-process worker nodes;
# the harness kills one worker mid-shard-range (the stranded range must
# re-dispatch to the survivor), then kills the coordinator itself and
# plants a torn compaction tmp in its store directory before a
# replacement coordinator resumes from the merge frontier with a
# replacement worker. The resumed stream must be byte-identical to an
# undisturbed serial run and the survivor's metrics exact
# (DESIGN.md §13).
fleet-smoke:
	$(GO) run -race ./cmd/uexc-serve -fleet-smoke

# Execution-tier cross-check: each 30-seed sweep (the fault campaign
# and the difftest oracle) under the JIT and under the pure interpreter
# must pass and produce byte-identical summaries — the executable
# observational-identity contract of cpu/translate.go.
engine-crosscheck:
	for sweep in faultcampaign difftest; do \
		$(GO) run ./cmd/uexc-bench -$$sweep -seeds 30 -parallel 4 -engine jit > .crosscheck-jit.out && \
		$(GO) run ./cmd/uexc-bench -$$sweep -seeds 30 -parallel 4 -engine interp > .crosscheck-interp.out && \
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
# seeds 0..10,000 with typed verdicts, checkpointed through the §12
# durable job store under .soak/ — kill it at any point and rerun; it
# resumes from the journal byte-identically. Fails on any unclassified
# (engine-bug) verdict.
soak:
	$(GO) run ./cmd/uexc-bench -soak -seeds 10000 -parallel 0 -soakdir .soak

# Race-enabled soak smoke over seeds 0..2,500 — covers the three
# historically bad seeds (820, 2223, 2227) — part of the tier-1 gate.
soak-smoke:
	$(GO) run -race ./cmd/uexc-bench -soak -seeds 2500 -parallel 0

# Short coverage-guided fuzzing burst on the decoder and assembler.
fuzz:
	$(GO) test ./internal/arch/ -fuzz FuzzDecodeEncode -fuzztime 30s
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime 30s

clean:
	$(GO) clean ./...
