# uexc build/verify entry points.
#
# `make check` is the tier-1 verification gate: static checks, the full
# test suite under the race detector (the root module and the bench/
# harness module), and a 30-seed fault-injection smoke campaign across
# all three delivery modes.

GO ?= go

# Statement-coverage ratchet over internal/: `make cover` fails if the
# suite's total coverage drops below this floor. Raise it when coverage
# durably improves; never lower it to make a change pass.
COVER_MIN ?= 86.0

.PHONY: all build test vet check cover campaign soak soak-smoke bench-campaign bench-cpu bench-jit bench-serve bench-fleet serve-smoke chaos-smoke snapshot-smoke difftest-crosscheck fleet-smoke fuzz clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 gate. The smoke campaign runs through the parallel engine
# (four workers); its output is byte-identical to -parallel 1 by the
# deterministic-merge contract (internal/parallel, DESIGN.md §8).
check: vet build
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test -race -short ./...
	$(GO) run ./cmd/uexc-bench -faultcampaign -seeds 30 -parallel 4
	$(GO) run ./cmd/uexc-bench -difftest -seeds 30 -parallel 4
	$(MAKE) difftest-crosscheck
	$(MAKE) soak-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) fleet-smoke
	$(MAKE) cover

# Serving smoke: spins a race-enabled uexc-serve on an ephemeral port
# and runs the end-to-end self-test — CLI byte-identity of streamed
# jobs, deterministic 429 backpressure, a mixed loadgen burst with
# exact /metrics accounting, and a graceful SIGTERM-style drain.
serve-smoke:
	$(GO) run -race ./cmd/uexc-serve -selftest -jobs 24 -concurrency 8

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
# undisturbed run, /metrics accounting exact, and a poison shard must
# quarantine with a typed failure instead of wedging the service
# (DESIGN.md §12, EXPERIMENTS.md).
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

# Translation-tier cross-check: the 30-seed difftest with the JIT
# forced on and forced off must produce byte-identical summaries —
# the executable observational-identity contract of cpu/translate.go.
difftest-crosscheck:
	$(GO) run ./cmd/uexc-bench -difftest -seeds 30 -parallel 4 -engine jit > .crosscheck-jit.out
	$(GO) run ./cmd/uexc-bench -difftest -seeds 30 -parallel 4 -engine interp > .crosscheck-interp.out
	cmp .crosscheck-jit.out .crosscheck-interp.out
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

# Serial-vs-parallel campaign wall time, recorded in the bench
# trajectory (see EXPERIMENTS.md).
bench-campaign:
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign(Serial|Parallel)' -benchtime 5x .

# Interpreter fast-path benchmarks: raw step loop and memcpy-style
# workload throughput (sim_MIPS) plus the serial campaign the DESIGN
# §10 speedup claim is measured on. Before/after numbers for the
# fast-path change are recorded in BENCH_cpu.json.
bench-cpu:
	$(GO) test -run '^$$' -bench 'Benchmark(StepLoop|MemcpyProgram|CampaignSerial)' -benchtime 2s .

# Paired translation-tier benchmark: the same three benchmarks with
# the engine pinned to the fast path and then to the JIT, back to back
# on the same host — the before/after methodology the "jit" entry in
# BENCH_cpu.json records. UEXC_ENGINE is read by the bench helpers in
# bench_test.go.
bench-jit:
	@echo "== engine=fast (before) =="
	UEXC_ENGINE=fast $(GO) test -run '^$$' -bench 'Benchmark(StepLoop|MemcpyProgram|CampaignSerial)' -benchtime 2s .
	@echo "== engine=jit (after) =="
	UEXC_ENGINE=jit $(GO) test -run '^$$' -bench 'Benchmark(StepLoop|MemcpyProgram|CampaignSerial)' -benchtime 2s .

# Serving benchmark: the full self-test at acceptance scale — 200
# mixed jobs at client concurrency 32 against a race-enabled server —
# recording throughput and latency percentiles in BENCH_serve.json
# (see EXPERIMENTS.md).
bench-serve:
	$(GO) run -race ./cmd/uexc-serve -selftest -jobs 200 -concurrency 32 -bench-out BENCH_serve.json

# Fleet benchmark: spawns two real uexc-serve worker processes, runs a
# coordinator against them, and records coordinator overhead vs a
# single node, a 100k+ seed-equivalent burst, and the tenant-quota
# demo under the "fleet" key of BENCH_serve.json (DESIGN.md §13,
# EXPERIMENTS.md). Built without -race: this measures throughput.
bench-fleet:
	$(GO) run ./cmd/uexc-serve -bench-fleet -bench-out BENCH_serve.json

# Short coverage-guided fuzzing burst on the decoder and assembler.
fuzz:
	$(GO) test ./internal/arch/ -fuzz FuzzDecodeEncode -fuzztime 30s
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime 30s

clean:
	$(GO) clean ./...
